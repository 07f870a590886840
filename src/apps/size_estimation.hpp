#pragma once

// The size-estimation protocol of §5.1 (Theorem 5.1), over either
// controller stack.
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
// Over the centralized stack (`SizeEstimation(tree, …)`) every request
// completes before submit returns and the count and broadcast are charged
// analytically (2 N_i per iteration).  Over the simulator
// (`SizeEstimation(net, tree, …)`) iteration i > 1 counts N_i with a real
// broadcast/convergecast, and the dissemination broadcast is charged to
// the network.
//
// All topological changes MUST flow through this protocol's request
// methods (the controlled dynamic model).

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "apps/terminating_iterations.hpp"

namespace dyncon::apps {

class SizeEstimation final : public TerminatingIterations {
 public:
  struct Options {
    bool track_domains = false;
    /// Forwarded to the controller iterations (§5.3; used by
    /// SubtreeEstimator).
    std::function<void(NodeId, std::uint64_t)> on_pass_down;
    /// Called at the start of every iteration, after the estimate resets.
    std::function<void()> on_iteration_start;
  };

  /// Over the centralized controller stack.
  SizeEstimation(tree::DynamicTree& tree, double beta, Options options)
      : SizeEstimation(nullptr, tree, beta, std::move(options)) {}
  SizeEstimation(tree::DynamicTree& tree, double beta)
      : SizeEstimation(nullptr, tree, beta, Options{}) {}
  /// Over the simulator.
  SizeEstimation(sim::Network& net, tree::DynamicTree& tree, double beta,
                 Options options)
      : SizeEstimation(&net, tree, beta, std::move(options)) {}
  SizeEstimation(sim::Network& net, tree::DynamicTree& tree, double beta)
      : SizeEstimation(&net, tree, beta, Options{}) {}
  /// Over the simulator when `net` is set, else the centralized stack.
  SizeEstimation(sim::Network* net, tree::DynamicTree& tree, double beta,
                 Options options);

  /// Charge `count` transmissions of `prototype` (an app's control
  /// traffic) to the network underneath; a no-op on the centralized stack.
  void charge(const sim::Message& prototype, std::uint64_t count) {
    stack_.charge(prototype, count);
  }

  /// The estimate every node currently holds (identical network-wide: it is
  /// the N_i broadcast at iteration start).
  [[nodiscard]] std::uint64_t estimate() const { return ni_; }
  [[nodiscard]] double beta() const { return beta_; }

 private:
  std::unique_ptr<core::TerminatingController> iteration(
      std::uint64_t ni) override;

  double beta_;
  double alpha_;
  Options options_;
  std::uint64_t ni_ = 0;
};

}  // namespace dyncon::apps
