#include "apps/interval_labeling.hpp"

#include <algorithm>
#include <utility>

#include "sim/wire.hpp"
#include "util/error.hpp"
#include "util/log2.hpp"

namespace dyncon::apps {

using core::RequestSpec;
using core::Result;

namespace {
/// Gap between consecutive DFS events; the slack is what insertions consume
/// between relabels.  Labels stay <= 2*kStride*n, i.e. log n + O(1) bits.
constexpr std::uint64_t kStride = 16;
}  // namespace

IntervalLabeling::IntervalLabeling(sim::Network* net, tree::DynamicTree& tree)
    : tree_(tree) {
  SizeEstimation::Options se;
  se.on_iteration_start = [this] {
    // When the network shrank enough that the old labels waste bits,
    // rebuild; amortized against the >= Omega(N_i) changes the
    // size-estimation iteration admitted.
    if (built_for_ > 0 && tree_.size() * 2 <= built_for_) relabel();
  };
  size_est_ = std::make_unique<SizeEstimation>(net, tree, 2.0, std::move(se));
  relabel();
}

void IntervalLabeling::relabel() {
  ++relabels_;
  labels_.clear();
  std::uint64_t counter = 0;
  // Iterative DFS assigning pre on entry and post on exit, stride apart.
  struct Frame {
    NodeId v;
    std::size_t next_child;
  };
  std::vector<Frame> stack{{tree_.root(), 0}};
  labels_[tree_.root()].pre = (counter += kStride);
  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto& kids = tree_.children(f.v);
    if (f.next_child < kids.size()) {
      const NodeId c = kids[f.next_child++];
      labels_[c].pre = (counter += kStride);
      stack.push_back(Frame{c, 0});
    } else {
      labels_[f.v].post = (counter += kStride);
      stack.pop_back();
    }
  }
  built_for_ = tree_.size();
  // The relabeling token's walk: 2(n-1) hops of O(log n) bits.
  const std::uint64_t hops = 2 * (tree_.size() - 1);
  control_messages_ += hops;
  size_est_->charge(sim::Message::app_value(sim::AppTopic::kToken, counter),
                    hops);
}

void IntervalLabeling::assign_leaf_label(NodeId u, NodeId parent) {
  // Place the leaf in its parent's trailing slack: just below post(parent),
  // above every existing descendant label of parent.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Label lp = labels_.at(parent);
    std::uint64_t hi = lp.pre;
    for (NodeId c : tree_.children(parent)) {
      if (c == u) continue;
      auto it = labels_.find(c);
      if (it != labels_.end()) hi = std::max(hi, it->second.post);
    }
    if (lp.post - hi >= 3) {
      labels_[u] = Label{hi + 1, hi + 2};
      ++control_messages_;  // the parent hands the label over
      return;
    }
    relabel();  // slack exhausted under this parent
  }
  DYNCON_INVARIANT(false, "no label slack even after a fresh relabel");
}

void IntervalLabeling::assign_wrapper_label(NodeId m) {
  // The wrapper adopted exactly one child when it was spliced in.
  DYNCON_INVARIANT(tree_.children(m).size() == 1,
                   "wrapper node with unexpected degree");
  const NodeId child = tree_.children(m).front();
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Label lc = labels_.at(child);
    const Label candidate{lc.pre - 1, lc.post + 1};
    // The wrapper label must nest strictly inside the parent's and collide
    // with no existing label component (both checks are local to the
    // parent in a real deployment; the hash probe models them).
    const Label lp = labels_.at(tree_.parent(m));
    bool ok = lp.pre < candidate.pre && candidate.post < lp.post;
    if (ok) {
      for (const auto& [node, lab] : labels_) {
        if (!tree_.alive(node)) continue;
        if (lab.pre == candidate.pre || lab.post == candidate.pre ||
            lab.pre == candidate.post || lab.post == candidate.post) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      labels_[m] = candidate;
      ++control_messages_;
      return;
    }
    relabel();
  }
  DYNCON_INVARIANT(false, "no wrapper slack even after a fresh relabel");
}

void IntervalLabeling::submit(const RequestSpec& spec, Callback done) {
  size_est_->submit(spec, [this, spec, done = std::move(done)](
                              const Result& r) {
    if (r.granted()) {
      switch (spec.type) {
        case RequestSpec::Type::kAddLeaf:
          assign_leaf_label(r.new_node, spec.subject);
          break;
        case RequestSpec::Type::kAddInternal:
          if (tree_.alive(r.new_node)) assign_wrapper_label(r.new_node);
          break;
        default:
          // Deletions never invalidate surviving labels (containment among
          // the survivors is unchanged); the entry is merely dropped.
          labels_.erase(spec.subject);
          break;
      }
    }
    done(r);
  });
}

void IntervalLabeling::submit_add_leaf(NodeId parent, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddLeaf, parent}, std::move(done));
}

void IntervalLabeling::submit_add_internal_above(NodeId child,
                                                 Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddInternal, child},
         std::move(done));
}

void IntervalLabeling::submit_remove(NodeId v, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kRemove, v}, std::move(done));
}

bool IntervalLabeling::is_ancestor(NodeId anc, NodeId v) const {
  return contains(label(anc), label(v));
}

NodeId IntervalLabeling::next_hop(NodeId u, NodeId v) const {
  DYNCON_REQUIRE(tree_.alive(u) && tree_.alive(v), "routing dead endpoints");
  DYNCON_REQUIRE(u != v, "next_hop of a node to itself");
  const Label lv = label(v);
  if (!contains(label(u), lv)) {
    // v is outside u's subtree: go up.
    DYNCON_INVARIANT(u != tree_.root(), "root's interval must contain all");
    return tree_.parent(u);
  }
  // v is strictly below u: forward to the child whose interval holds it.
  for (NodeId c : tree_.children(u)) {
    if (contains(label(c), lv)) return c;
  }
  DYNCON_INVARIANT(false, "label containment without a matching child");
  return kNoNode;
}

std::vector<NodeId> IntervalLabeling::route(NodeId u, NodeId v) const {
  std::vector<NodeId> hops;
  NodeId cur = u;
  while (cur != v) {
    cur = next_hop(cur, v);
    hops.push_back(cur);
    DYNCON_INVARIANT(hops.size() <= tree_.size(), "routing loop");
  }
  return hops;
}

IntervalLabeling::Label IntervalLabeling::label(NodeId v) const {
  DYNCON_REQUIRE(tree_.alive(v), "label of a dead node");
  auto it = labels_.find(v);
  DYNCON_INVARIANT(it != labels_.end(), "alive node without a label");
  return it->second;
}

std::uint64_t IntervalLabeling::label_bits() const {
  std::uint64_t biggest = 1;
  for (NodeId v : tree_.alive_nodes()) {
    biggest = std::max(biggest, label(v).post);
  }
  return ceil_log2(biggest + 1);
}

std::uint64_t IntervalLabeling::messages() const {
  return size_est_->messages() + control_messages_;
}

}  // namespace dyncon::apps
