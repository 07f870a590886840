#pragma once

// Heavy-child decomposition maintenance (§5.3, Theorem 5.4), over either
// controller stack.
//
// Each internal node v keeps a pointer mu(v) to one child — its *heavy*
// child; all other children are *light*.  The protocol maintains the
// pointers so that every node has O(log n) light ancestors at all times:
//
//   * a subtree estimator with beta = sqrt(3) gives each node a
//     beta-approximation of its super-weight;
//   * whenever a node's estimate changes it informs its parent (one
//     message; at most doubling the total message count);
//   * each parent points at the child with the largest reported estimate,
//     which guarantees SW(light child) <= 3/4 * SW(v).
//
// Deviation noted in DESIGN.md: the paper has each node remember only the
// single largest child estimate; we keep the last report of every child
// (local memory only, no extra messages) so the pointer can be recomputed
// when the heavy child is deleted or re-parented.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "apps/subtree_estimator.hpp"

namespace dyncon::apps {

class HeavyChild final : private tree::TreeObserver {
 public:
  using Callback = SubtreeEstimator::Callback;

  /// Over the centralized controller stack.
  explicit HeavyChild(tree::DynamicTree& tree) : HeavyChild(nullptr, tree) {}
  /// Over the simulator.
  HeavyChild(sim::Network& net, tree::DynamicTree& tree)
      : HeavyChild(&net, tree) {}
  ~HeavyChild() override;

  void submit(const core::RequestSpec& spec, Callback done);
  void submit_add_leaf(NodeId parent, Callback done);
  void submit_add_internal_above(NodeId child, Callback done);
  void submit_remove(NodeId v, Callback done);

  /// mu(v): the heavy child of v, or kNoNode for a leaf.
  [[nodiscard]] NodeId heavy(NodeId v) const;

  /// Number of light ancestors of v (ancestors a != v whose child on the
  /// path to v is not mu(a)).
  [[nodiscard]] std::uint64_t light_ancestors(NodeId v) const;

  /// max over alive nodes (the decomposition's quality, O(log n) claimed).
  [[nodiscard]] std::uint64_t max_light_ancestors() const;

  [[nodiscard]] std::uint64_t messages() const;
  [[nodiscard]] const SubtreeEstimator& estimator() const { return *est_; }

  /// Charge an app's control traffic to the network underneath (a no-op
  /// on the centralized stack).
  void charge(const sim::Message& prototype, std::uint64_t count) {
    est_->charge(prototype, count);
  }

 private:
  HeavyChild(sim::Network* net, tree::DynamicTree& tree);
  void on_estimate_update(NodeId v);
  void recompute_heavy(NodeId v);

  // TreeObserver: keep the child-report tables aligned with the topology.
  void on_add_leaf(NodeId u, NodeId parent) override;
  void on_remove_leaf(NodeId u, NodeId parent) override;
  void on_add_internal(NodeId u, NodeId parent, NodeId child) override;
  void on_remove_internal(NodeId u, NodeId parent,
                          const std::vector<NodeId>& children) override;

  tree::DynamicTree& tree_;
  std::unique_ptr<SubtreeEstimator> est_;
  /// Last estimate each child reported to this node.
  std::unordered_map<NodeId, std::unordered_map<NodeId, std::uint64_t>>
      child_reports_;
  std::unordered_map<NodeId, NodeId> heavy_;
  std::uint64_t report_messages_ = 0;
};

}  // namespace dyncon::apps
