#pragma once

// The unknown-U distributed (M,W)-controller (Theorem 4.9, Appendix A).
//
// Iteration i assumes U_i = 2 N_i and runs TWO terminating controllers in
// parallel over the same tree:
//
//   * the main terminating (M_i, W)-controller, which actually answers
//     requests and applies topological changes;
//   * a terminating (U_i/2, U_i/4)-controller that "counts only the
//     topological changes": every topological request must also obtain a
//     permit from it (its agents ignore the other controller's locks —
//     realized here by giving each instance its own whiteboards).
//
// When the counting controller terminates, between U_i/4 and U_i/2
// topological changes have happened, so the iteration rotates: both
// controllers drain and terminate, a broadcast/upcast counts N_{i+1} and
// Y_i and resets the structures, and iteration i+1 starts with
// M_{i+1} = M_i - Y_i and U_{i+1} = 2 N_{i+1}.  If the *main* controller
// terminates on its own, at most W permits are unused anywhere and the
// controller rejects from then on.

#include <cstdint>
#include <deque>
#include <memory>

#include "core/distributed_controller.hpp"
#include "core/iterated.hpp"

namespace dyncon::core {

class DistributedAdaptive {
 public:
  using Callback = DistributedController::Callback;

  enum class Policy : std::uint8_t { kChangeCount, kSizeDoubling };

  struct Options {
    bool track_domains = true;
    /// Part 1 (default) rotates after ~U_i/4 changes with U_i = 2 N_i;
    /// part 2 sizes U_i by the maximum simultaneous node count seen so far
    /// (Thm. 3.5's second bound).
    Policy policy = Policy::kChangeCount;
    /// Armed at *this* wrapper's submit boundary — one token per request
    /// across rotations; not forwarded to the inner controllers.
    sim::Watchdog* watchdog = nullptr;
    /// Forwarded to both inner controllers (main + counting sidecar).
    bool allow_unreliable_transport = false;
    /// Crash stack, forwarded to both inner controllers; the wrapper's
    /// death probe sweeps both (see IteratedController::Options).
    sim::CrashDriver* crashes = nullptr;
    agent::Durability durability = agent::Durability::kVolatile;
    bool meter_persistence = false;
    std::uint32_t crash_redrives = 2;
  };

  DistributedAdaptive(sim::Network& net, tree::DynamicTree& tree,
                      std::uint64_t M, std::uint64_t W, Options options);
  DistributedAdaptive(sim::Network& net, tree::DynamicTree& tree,
                      std::uint64_t M, std::uint64_t W)
      : DistributedAdaptive(net, tree, M, W, Options{}) {}
  ~DistributedAdaptive();

  DistributedAdaptive(const DistributedAdaptive&) = delete;
  DistributedAdaptive& operator=(const DistributedAdaptive&) = delete;

  void submit(const RequestSpec& spec, Callback done);

  [[nodiscard]] std::uint64_t messages_used() const;
  [[nodiscard]] std::uint64_t permits_granted() const;
  [[nodiscard]] std::uint64_t rejects_delivered() const { return rejects_; }
  [[nodiscard]] std::uint64_t iterations() const { return iterations_; }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] std::uint64_t current_U() const { return ui_; }

 private:
  void start_iteration();
  void begin_rotation(bool main_exhausted);
  void finish_rotation(bool main_exhausted);
  void dispatch(const RequestSpec& spec, Callback done);
  void submit_to_main(const RequestSpec& spec, Callback done);
  void complete_async(Callback done, Result r);

  sim::Network& net_;
  tree::DynamicTree& tree_;
  Options options_;
  std::uint64_t w_;
  std::uint64_t mi_;
  std::uint64_t ui_ = 0;
  std::uint64_t max_n_ = 0;

  std::unique_ptr<TerminatingController> main_;
  std::unique_ptr<TerminatingController> counter_;
  bool rotating_ = false;
  bool done_ = false;
  bool wave_charged_ = false;
  std::uint64_t pending_drains_ = 0;
  std::deque<std::pair<RequestSpec, Callback>> pending_;
  std::uint64_t iterations_ = 0;
  std::uint64_t granted_base_ = 0;
  std::uint64_t messages_base_ = 0;
  std::uint64_t rejects_ = 0;
};

}  // namespace dyncon::core
