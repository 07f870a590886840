#pragma once

// The size-estimation protocol of §5.1 (Theorem 5.1).
//
// Every node maintains a beta-approximation n~ of the current network size:
// n/beta <= n~ <= beta*n at all times.  The protocol runs in iterations:
// at iteration start the exact size N_i is counted and broadcast (each node
// adopts it as its estimate), then a terminating (alpha*N_i, alpha*N_i/2)-
// controller with alpha = 1 - 1/beta admits topological changes; because it
// terminates after at most alpha*N_i granted changes (and at least
// alpha*N_i/2), the size cannot drift outside [N_i/beta, beta*N_i] within
// an iteration, and each iteration's O(N_i log^2 N_i) messages amortize to
// O(log^2 n) per change.
//
// All topological changes MUST flow through this protocol's request
// methods (the controlled dynamic model).

#include <cstdint>
#include <functional>
#include <memory>

#include "core/terminating_controller.hpp"
#include "sim/network.hpp"

namespace dyncon::apps {

/// The §5.1 layer as the §5.3–§5.4 schemes see it, over either controller
/// stack: SizeEstimation (centralized) or DistributedSizeEstimation (the
/// simulator).  Lemma 4.3 makes the two one protocol, so each scheme above
/// is written once against this interface.
class ISizeEstimation {
 public:
  using Callback = std::function<void(const core::Result&)>;

  struct Options {
    bool track_domains = false;
    /// Forwarded to the controller iterations (§5.3; used by
    /// SubtreeEstimator).
    std::function<void(NodeId, std::uint64_t)> on_pass_down;
    /// Called at the start of every iteration, after the estimate resets.
    std::function<void()> on_iteration_start;
  };

  ISizeEstimation() = default;
  ISizeEstimation(const ISizeEstimation&) = delete;
  ISizeEstimation& operator=(const ISizeEstimation&) = delete;
  virtual ~ISizeEstimation() = default;

  /// Submit a topological request (kEvent requests are rejected by
  /// contract: this protocol only meters membership changes).
  virtual void submit(const core::RequestSpec& spec, Callback done) = 0;
  /// Charge `count` transmissions of `prototype` (an app's control
  /// traffic) to the network the layer runs on.
  virtual void charge(const sim::Message& prototype,
                      std::uint64_t count) = 0;

  /// The network-wide estimate (the current iteration's N_i).
  [[nodiscard]] virtual std::uint64_t estimate() const = 0;
  [[nodiscard]] virtual std::uint64_t iterations() const = 0;
  [[nodiscard]] virtual std::uint64_t messages() const = 0;
  [[nodiscard]] virtual double beta() const = 0;
};

/// The §5.1 layer over the simulator when `net` is set, otherwise over the
/// centralized controller stack.
[[nodiscard]] std::unique_ptr<ISizeEstimation> make_size_estimation(
    sim::Network* net, tree::DynamicTree& tree, double beta,
    ISizeEstimation::Options options);

class SizeEstimation final : public ISizeEstimation {
 public:
  SizeEstimation(tree::DynamicTree& tree, double beta, Options options);
  SizeEstimation(tree::DynamicTree& tree, double beta)
      : SizeEstimation(tree, beta, Options{}) {}

  core::Result request_add_leaf(NodeId parent);
  core::Result request_add_internal_above(NodeId child);
  core::Result request_remove(NodeId v);

  /// Runs the request to its verdict: `done` fires before submit returns.
  void submit(const core::RequestSpec& spec, Callback done) override;
  /// No network underneath: control traffic is charged analytically.
  void charge(const sim::Message&, std::uint64_t) override {}

  /// The estimate every node currently holds (identical network-wide: it is
  /// the N_i broadcast at iteration start).
  [[nodiscard]] std::uint64_t estimate() const override { return ni_; }

  [[nodiscard]] double beta() const override { return beta_; }
  [[nodiscard]] std::uint64_t iterations() const override {
    return iterations_;
  }

  /// Total messages: controller traffic plus the per-iteration counting
  /// broadcast/upcast.
  [[nodiscard]] std::uint64_t messages() const override;

  [[nodiscard]] const core::TerminatingController& controller() const {
    return *inner_;
  }

 private:
  template <typename Fn>
  core::Result with_rotation(Fn&& submit);
  void start_iteration();

  tree::DynamicTree& tree_;
  double beta_;
  double alpha_;
  Options options_;

  std::unique_ptr<core::TerminatingController> inner_;
  std::uint64_t ni_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t control_messages_ = 0;
  std::uint64_t messages_base_ = 0;
};

}  // namespace dyncon::apps
