#include "apps/subtree_estimator.hpp"

#include <utility>

#include "sim/wire.hpp"
#include "util/error.hpp"

namespace dyncon::apps {

using core::RequestSpec;
using core::Result;

namespace {
std::uint64_t value_or_zero(
    const std::unordered_map<NodeId, std::uint64_t>& map, NodeId v) {
  const auto it = map.find(v);
  return it == map.end() ? 0 : it->second;
}
}  // namespace

SubtreeEstimator::SubtreeEstimator(tree::DynamicTree& tree, double beta,
                                   Options options)
    : SubtreeEstimator(nullptr, tree, beta, std::move(options)) {}

SubtreeEstimator::SubtreeEstimator(sim::Network& net,
                                   tree::DynamicTree& tree, double beta,
                                   Options options)
    : SubtreeEstimator(&net, tree, beta, std::move(options)) {}

SubtreeEstimator::SubtreeEstimator(sim::Network* net,
                                   tree::DynamicTree& tree, double beta,
                                   Options options)
    : tree_(tree), options_(std::move(options)) {
  SizeEstimation::Options se;
  se.on_pass_down = [this](NodeId v, std::uint64_t permits) {
    on_pass_down(v, permits);
  };
  se.on_iteration_start = [this] { on_iteration_start(); };
  size_est_ = std::make_unique<SizeEstimation>(net, tree, beta, std::move(se));
  // The layer started its first iteration inside its own construction,
  // before size_est_ was set; that iteration's baseline is computed here.
  on_iteration_start();
}

void SubtreeEstimator::on_iteration_start() {
  if (!size_est_) return;
  // w0 dissemination: one extra broadcast/upcast (2(n-1) messages) on top
  // of the size estimator's own counting.
  size_est_->charge(
      sim::Message::app_value(sim::AppTopic::kReport, tree_.size()),
      2 * (tree_.size() - 1));
  w0_.clear();
  passed_.clear();
  sw_.clear();
  // Post-order accumulation (children have larger BFS indices, so iterate
  // the BFS order backwards).
  const auto order = tree_.alive_nodes();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    std::uint64_t w = 1;
    for (NodeId c : tree_.children(v)) w += w0_[c];
    w0_[v] = w;
    sw_[v] = w;
  }
  if (options_.on_estimate_update) {
    for (NodeId v : order) options_.on_estimate_update(v);
  }
}

void SubtreeEstimator::on_pass_down(NodeId v, std::uint64_t permits) {
  passed_[v] += permits;
  if (options_.on_estimate_update) options_.on_estimate_update(v);
}

void SubtreeEstimator::submit(const RequestSpec& spec, Callback done) {
  size_est_->submit(spec, [this, spec, done = std::move(done)](
                              const Result& r) {
    if (r.granted() && r.new_node != kNoNode) {
      const NodeId u = r.new_node;
      const bool internal = spec.type == RequestSpec::Type::kAddInternal;
      if (!internal) {
        w0_[u] = 1;
        sw_[u] = 1;
      } else if (tree_.alive(u)) {
        // Graceful-insertion bootstrap: the new node adopts its child's
        // current counters (one local handshake) so its estimate reflects
        // the subtree it now roots.
        std::uint64_t base = 1;
        std::uint64_t s = 1;
        for (NodeId c : tree_.children(u)) {
          base += value_or_zero(w0_, c) + value_or_zero(passed_, c);
          s += value_or_zero(sw_, c);
        }
        w0_[u] = base;
        sw_[u] = s;
      }
      // Super-weights of ancestors grow on additions (ever-existed); a
      // removal changes nothing upward.
      if (tree_.alive(u)) {
        for (NodeId cur = u; cur != tree_.root();) {
          cur = tree_.parent(cur);
          sw_[cur] += 1;
        }
        // The new node's first estimate: one update, leaf or internal.
        if (options_.on_estimate_update) options_.on_estimate_update(u);
      }
    }
    done(r);
  });
}

void SubtreeEstimator::submit_add_leaf(NodeId parent, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddLeaf, parent}, std::move(done));
}

void SubtreeEstimator::submit_add_internal_above(NodeId child,
                                                 Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddInternal, child},
         std::move(done));
}

void SubtreeEstimator::submit_remove(NodeId v, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kRemove, v}, std::move(done));
}

std::uint64_t SubtreeEstimator::estimate(NodeId v) const {
  DYNCON_REQUIRE(tree_.alive(v), "estimate of a dead node");
  return value_or_zero(w0_, v) + value_or_zero(passed_, v);
}

std::uint64_t SubtreeEstimator::true_super_weight(NodeId v) const {
  DYNCON_REQUIRE(tree_.alive(v), "super-weight of a dead node");
  auto it = sw_.find(v);
  return it == sw_.end() ? 1 : it->second;
}

std::uint64_t SubtreeEstimator::messages() const {
  // The w0 dissemination is one extra broadcast/upcast per iteration.
  return size_est_->messages() + 2 * iterations() * tree_.size();
}

}  // namespace dyncon::apps
