#pragma once

// DFS-interval labels on dynamic trees (§5.4), over either controller
// stack: one scheme answering both ancestry queries (Cor. 5.7) and
// stretch-1 compact routing (Obs. 5.5 / Cor. 5.6).
//
// Static labels are classic DFS intervals (Kannan–Naor–Rudich [17]):
// label(v) = [pre(v), post(v)].  u is an ancestor of v iff label(u)
// contains label(v); and the next hop from u toward v is the child whose
// interval contains label(v), or u's parent when none does — decided from
// u's local table and v's label alone.  Deletions (of leaves *and* internal
// nodes) never invalidate containment among the survivors, so on a tree
// survivor-to-survivor routes only ever shorten; the only thing a dynamic
// scheme must manage is label *size*: after heavy shrinkage the old labels
// waste bits relative to the optimal O(log n).
//
// Following Cor. 5.6/5.7, the scheme piggybacks on the size-estimation
// protocol: when an iteration starts and the counted size has dropped below
// half of the size the labels were built for, one DFS relabels the tree
// (2(n-1) token hops).  Insertions within an iteration consume the slack
// left between consecutive DFS events.  Message complexity: O(n0 log^2 n0 +
// M(pi, n0) + sum_i(log^2 n_i + M(pi, n_i)/n_i)) where M(pi, n) = O(n) is
// the relabeling cost.  Queries are free (label inspection); `route` walks
// the hop sequence for tests and demos.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "apps/size_estimation.hpp"

namespace dyncon::apps {

class IntervalLabeling {
 public:
  using Callback = SizeEstimation::Callback;

  struct Label {
    std::uint64_t pre = 0;   ///< interval start (also the node's address)
    std::uint64_t post = 0;  ///< interval end
  };

  /// Over the centralized controller stack.
  explicit IntervalLabeling(tree::DynamicTree& tree)
      : IntervalLabeling(nullptr, tree) {}
  /// Over the simulator.
  IntervalLabeling(sim::Network& net, tree::DynamicTree& tree)
      : IntervalLabeling(&net, tree) {}
  // The layer's callbacks hold `this`.
  IntervalLabeling(const IntervalLabeling&) = delete;
  IntervalLabeling& operator=(const IntervalLabeling&) = delete;

  // Controlled topological changes (through the size estimator).
  void submit(const core::RequestSpec& spec, Callback done);
  void submit_add_leaf(NodeId parent, Callback done);
  void submit_add_internal_above(NodeId child, Callback done);
  void submit_remove(NodeId v, Callback done);

  /// Ancestry query answered from the two labels alone.
  [[nodiscard]] bool is_ancestor(NodeId anc, NodeId v) const;

  /// The next hop from u toward v, decided from u's local table and v's
  /// label only.  Requires u != v.
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId v) const;

  /// Full route from u to v (for audits); empty if u == v.
  [[nodiscard]] std::vector<NodeId> route(NodeId u, NodeId v) const;

  [[nodiscard]] Label label(NodeId v) const;

  /// Bits needed for the largest label component currently in use.
  [[nodiscard]] std::uint64_t label_bits() const;

  [[nodiscard]] std::uint64_t relabels() const { return relabels_; }
  [[nodiscard]] std::uint64_t messages() const;

 private:
  IntervalLabeling(sim::Network* net, tree::DynamicTree& tree);
  void relabel();
  void assign_leaf_label(NodeId u, NodeId parent);
  void assign_wrapper_label(NodeId m);
  [[nodiscard]] static bool contains(const Label& outer,
                                     const Label& inner) {
    return outer.pre <= inner.pre && inner.post <= outer.post;
  }

  tree::DynamicTree& tree_;
  std::unique_ptr<SizeEstimation> size_est_;
  std::unordered_map<NodeId, Label> labels_;
  std::uint64_t built_for_ = 0;  ///< size the labels were last built for
  std::uint64_t relabels_ = 0;
  std::uint64_t control_messages_ = 0;
};

}  // namespace dyncon::apps
