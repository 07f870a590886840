#include "apps/heavy_child.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace dyncon::apps {

using core::RequestSpec;

HeavyChild::HeavyChild(sim::Network* net, tree::DynamicTree& tree)
    : tree_(tree) {
  SubtreeEstimator::Options opts;
  opts.on_estimate_update = [this](NodeId v) { on_estimate_update(v); };
  est_ = net ? std::make_unique<SubtreeEstimator>(*net, tree, std::sqrt(3.0),
                                                  std::move(opts))
             : std::make_unique<SubtreeEstimator>(tree, std::sqrt(3.0),
                                                  std::move(opts));
  tree_.add_observer(this);
  // Seed the reports for the initial topology.
  for (NodeId v : tree_.alive_nodes()) on_estimate_update(v);
}

HeavyChild::~HeavyChild() { tree_.remove_observer(this); }

void HeavyChild::on_estimate_update(NodeId v) {
  // The estimator fires its first iteration-start callback from inside its
  // own construction, before est_ is assigned; the constructor re-seeds
  // every node afterwards, so skipping here loses nothing.
  if (!est_ || !tree_.alive(v) || v == tree_.root()) return;
  const NodeId p = tree_.parent(v);
  ++report_messages_;
  child_reports_[p][v] = est_->estimate(v);
  recompute_heavy(p);
}

void HeavyChild::recompute_heavy(NodeId v) {
  const auto& kids = tree_.children(v);
  if (kids.empty()) {
    heavy_.erase(v);
    return;
  }
  auto& reports = child_reports_[v];
  NodeId best = kids.front();
  std::uint64_t best_est = 0;
  for (NodeId c : kids) {
    const auto it = reports.find(c);
    const std::uint64_t e = it == reports.end() ? 1 : it->second;
    if (e > best_est) {
      best_est = e;
      best = c;
    }
  }
  heavy_[v] = best;
}

void HeavyChild::submit(const RequestSpec& spec, Callback done) {
  // A granted new node reports to its parent through the estimator's
  // on_estimate_update, like every other estimate change.
  est_->submit(spec, std::move(done));
}

void HeavyChild::submit_add_leaf(NodeId parent, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddLeaf, parent}, std::move(done));
}

void HeavyChild::submit_add_internal_above(NodeId child, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddInternal, child},
         std::move(done));
}

void HeavyChild::submit_remove(NodeId v, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kRemove, v}, std::move(done));
}

NodeId HeavyChild::heavy(NodeId v) const {
  auto it = heavy_.find(v);
  return it == heavy_.end() ? kNoNode : it->second;
}

std::uint64_t HeavyChild::light_ancestors(NodeId v) const {
  DYNCON_REQUIRE(tree_.alive(v), "light_ancestors of a dead node");
  std::uint64_t light = 0;
  NodeId cur = v;
  while (cur != tree_.root()) {
    const NodeId p = tree_.parent(cur);
    if (heavy(p) != cur) ++light;
    cur = p;
  }
  return light;
}

std::uint64_t HeavyChild::max_light_ancestors() const {
  std::uint64_t best = 0;
  for (NodeId v : tree_.alive_nodes()) {
    best = std::max(best, light_ancestors(v));
  }
  return best;
}

std::uint64_t HeavyChild::messages() const {
  return est_->messages() + report_messages_;
}

void HeavyChild::on_add_leaf(NodeId u, NodeId parent) {
  child_reports_[parent][u] = 1;
  recompute_heavy(parent);
}

void HeavyChild::on_remove_leaf(NodeId u, NodeId parent) {
  child_reports_[parent].erase(u);
  child_reports_.erase(u);
  heavy_.erase(u);
  recompute_heavy(parent);
}

void HeavyChild::on_add_internal(NodeId u, NodeId parent, NodeId child) {
  auto& preports = child_reports_[parent];
  const auto it = preports.find(child);
  const std::uint64_t child_est = it == preports.end() ? 1 : it->second;
  preports.erase(child);
  preports[u] = child_est + 1;
  child_reports_[u][child] = child_est;
  heavy_[u] = child;
  recompute_heavy(parent);
}

void HeavyChild::on_remove_internal(NodeId u, NodeId parent,
                                    const std::vector<NodeId>& children) {
  auto& preports = child_reports_[parent];
  preports.erase(u);
  auto& ureports = child_reports_[u];
  for (NodeId c : children) {
    const auto it = ureports.find(c);
    preports[c] = it == ureports.end() ? 1 : it->second;
  }
  child_reports_.erase(u);
  heavy_.erase(u);
  recompute_heavy(parent);
}

}  // namespace dyncon::apps
