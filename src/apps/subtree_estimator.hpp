#pragma once

// The subtree-estimator protocol of §5.3 (Lemma 5.3), over either
// controller stack.
//
// During iteration i of the size-estimation protocol, node u's *super-
// weight* SW(u) is the number of descendants u had at the iteration start
// plus every node that existed below u at some point during the iteration.
// Each node estimates its super-weight locally as
//
//     w~(u) = w0(u, i) + S(u)
//
// where w0 is its descendant count computed by a broadcast/upcast at the
// iteration start, and S(u) counts the permits of the size-estimation
// controller that passed down the tree through u during the iteration —
// a purely local observation (the on_pass_down hook; on the simulator,
// each node watching the permit packages that physically travel through
// it inside agents' Bags, at zero extra messages).
//
// The estimator also maintains the exact super-weight per node (an O(depth)
// bookkeeping walk per granted change) so tests and benches can audit the
// approximation; this mirror costs no protocol messages.

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "apps/size_estimation.hpp"

namespace dyncon::apps {

class SubtreeEstimator {
 public:
  using Callback = SizeEstimation::Callback;

  struct Options {
    /// Fired after any estimate update at `node` (HeavyChild forwards the
    /// new estimate to the parent).
    std::function<void(NodeId)> on_estimate_update;
  };

  /// Over the centralized controller stack: every request completes
  /// before submit returns.
  SubtreeEstimator(tree::DynamicTree& tree, double beta, Options options);
  SubtreeEstimator(tree::DynamicTree& tree, double beta)
      : SubtreeEstimator(tree, beta, Options{}) {}
  /// Over the simulator: requests complete as `net`'s queue runs.
  SubtreeEstimator(sim::Network& net, tree::DynamicTree& tree, double beta,
                   Options options);
  SubtreeEstimator(sim::Network& net, tree::DynamicTree& tree, double beta)
      : SubtreeEstimator(net, tree, beta, Options{}) {}
  // The layer's callbacks hold `this`.
  SubtreeEstimator(const SubtreeEstimator&) = delete;
  SubtreeEstimator& operator=(const SubtreeEstimator&) = delete;

  void submit(const core::RequestSpec& spec, Callback done);
  void submit_add_leaf(NodeId parent, Callback done);
  void submit_add_internal_above(NodeId child, Callback done);
  void submit_remove(NodeId v, Callback done);

  /// The node's current super-weight estimate w~(u).
  [[nodiscard]] std::uint64_t estimate(NodeId v) const;

  /// Ground-truth super-weight (for audits; not a protocol quantity).
  [[nodiscard]] std::uint64_t true_super_weight(NodeId v) const;

  /// Network size estimate (from the underlying size estimation).
  [[nodiscard]] std::uint64_t size_estimate() const {
    return size_est_->estimate();
  }

  [[nodiscard]] double beta() const { return size_est_->beta(); }
  [[nodiscard]] std::uint64_t messages() const;
  [[nodiscard]] std::uint64_t iterations() const {
    return size_est_->iterations();
  }

  /// Charge an app's control traffic to the network underneath (a no-op
  /// on the centralized stack).
  void charge(const sim::Message& prototype, std::uint64_t count) {
    size_est_->charge(prototype, count);
  }

 private:
  SubtreeEstimator(sim::Network* net, tree::DynamicTree& tree, double beta,
                   Options options);
  void on_iteration_start();
  void on_pass_down(NodeId v, std::uint64_t permits);

  tree::DynamicTree& tree_;
  Options options_;
  std::unique_ptr<SizeEstimation> size_est_;

  std::unordered_map<NodeId, std::uint64_t> w0_;      ///< iteration baseline
  std::unordered_map<NodeId, std::uint64_t> passed_;  ///< S(u)
  std::unordered_map<NodeId, std::uint64_t> sw_;      ///< exact mirror
};

}  // namespace dyncon::apps
