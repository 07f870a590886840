#pragma once

// The iterated (M,W)-controller of Observation 3.4 / Theorem 4.7 and the
// terminating transform of Observation 2.1, over either controller stack.
//
// `IteratedController` runs base (M,W)-controllers in iterations:
// iteration i uses (M_i, M_i/2); when the base first signals exhaustion
// the wrapper lets every request in flight finish (on the simulator, the
// stand-in for "all actions of the controller have been completed"),
// counts the L unused permits left in packages and storage, clears the
// structure, and starts iteration i+1 with M_{i+1} = L.  Requests that
// saw the exhaustion are replayed on the next instance.  Liveness of each
// iteration guarantees L <= M_i/2, so after O(log(M/(W+1))) iterations the
// leftover is within a constant factor of W and a final (M_i, W) iteration
// finishes the job.
//
// W = 0 (grant *exactly* M permits) follows the paper: run the (M,1)
// pipeline; if it ends short, the trivial (1,0)-controller — a direct
// root-to-requester delivery — grants the rest.
//
// `TerminatingController` is the Observation 2.1 transform: it never
// rejects; when the pipeline exhausts it terminates (one broadcast and
// upcast, 2n messages), after which M - W <= granted <= M.  It can also
// be terminated from outside (`terminate`), which the adaptive
// controllers' rotations and the §5.1/§5.2 protocols build on.
//
// `X(tree, …)` runs over the centralized controller of §3: every verdict
// arrives before submit returns, and the cost is move complexity.
// `X(net, tree, …)` runs over the distributed controller of §4 on the
// simulator: verdicts arrive from the event loop, and the cost is
// messages, also charged to the network's NetStats.  `Stack` holds every
// difference between the two.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/centralized_controller.hpp"
#include "core/distributed_controller.hpp"
#include "sim/network.hpp"
#include "tree/dynamic_tree.hpp"
#include "util/error.hpp"
#include "util/interval.hpp"

namespace dyncon::agent {
class Convergecast;
}  // namespace dyncon::agent

namespace dyncon::sim {
class CrashDriver;
class Watchdog;
}  // namespace dyncon::sim

namespace dyncon::core {

/// What the wrappers and the §5.1/§5.2 protocols do differently on the two
/// controller stacks, in one place.  A null network is the centralized
/// stack; otherwise the simulator.
class Stack {
 public:
  using Callback = BaseController::Callback;

  explicit Stack(sim::Network* net);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] sim::Network* net() const { return net_; }
  /// Trace timestamp.
  [[nodiscard]] SimTime now() const {
    return net_ != nullptr ? net_->queue().now() : 0;
  }

  /// Run `fn`, one call into the object that owns this stack.  On the
  /// centralized stack the outermost such call then runs the work that
  /// after_unwind / after_base_verdict deferred.
  template <typename Fn>
  void enter(Fn&& fn) {
    if (net_ != nullptr) {
      fn();
      return;
    }
    ++depth_;
    struct Exit {
      std::uint32_t& depth;
      ~Exit() { --depth; }
    } exit{depth_};
    fn();
    if (depth_ == 1) run_deferred();
  }

  /// The synchronous facade: `submit(done)` must deliver its verdict
  /// before it returns, which only the centralized stack does, and only
  /// outside a call already running through this stack.
  template <typename Submit>
  Result run_inline(Submit&& submit) {
    DYNCON_REQUIRE(net_ == nullptr && depth_ == 0,
                   "synchronous request outside the centralized stack");
    std::optional<Result> out;
    submit([&out](const Result& r) { out = r; });
    DYNCON_INVARIANT(out.has_value(), "request still pending after submit");
    return *out;
  }

  /// Run `fn` as a +0 event on the simulator, at once on the centralized
  /// stack: how the wrappers deliver the verdicts they make themselves.
  template <typename Fn>
  void post(Fn&& fn) {
    if (net_ != nullptr) {
      net_->queue().schedule_after(0, std::forward<Fn>(fn));
    } else {
      fn();
    }
  }
  /// post() delivering `r` to `done`.
  void complete(Callback done, Result r);

  /// Run `fn` once the calls now running through this stack have
  /// returned, so `fn` may destroy an object whose callback is running:
  /// as a +0 event on the simulator; on the centralized stack at the end
  /// of the outermost enter(), or at once if none is running.
  void after_unwind(std::function<void()> fn);

  /// Like after_unwind, for `fn` called from a base controller's verdict
  /// callback.  The simulator runs it at once: the distributed controller
  /// delivers a verdict as the last act of its event.
  template <typename Fn>
  void after_base_verdict(Fn&& fn) {
    if (net_ != nullptr) {
      fn();
    } else {
      after_unwind(std::forward<Fn>(fn));
    }
  }

  /// Charge `count` transmissions of `prototype` to NetStats (simulator
  /// only); returns `count`.
  std::uint64_t charge(const sim::Message& prototype, std::uint64_t count);

  /// The trivial (1,0)-controller's grant at a node `depth` hops below the
  /// root: the permit's walk down (centralized moves), or an agent's walk
  /// up and back (simulator messages).  Returns the cost.
  std::uint64_t trivial_grant(std::uint64_t depth, std::uint64_t serial);

  /// The rotation's broadcast/upcast counting the leftover L over n nodes:
  /// free in the centralized model, 2n messages on the simulator.
  std::uint64_t rotation(std::uint64_t leftover, std::uint64_t n);

  /// Disseminate a fresh count N_i over n nodes (§5.1): one broadcast,
  /// n-1 messages, on the simulator, whose count was real traffic of its
  /// own; the count and the broadcast together, 2 N_i, on the centralized
  /// stack.  Returns the cost.
  std::uint64_t announce_count(std::uint64_t ni, std::uint64_t n);

  /// Count the live nodes, then `done(count)`: a real broadcast and
  /// convergecast on the simulator; read off the tree on the centralized
  /// stack, where each protocol charges its count analytically.
  void count_nodes(tree::DynamicTree& tree,
                   std::function<void(std::uint64_t)> done);
  /// Messages the counts have sent.
  [[nodiscard]] std::uint64_t count_messages() const;

 private:
  void run_deferred();

  sim::Network* net_;
  std::uint32_t depth_ = 0;
  std::size_t next_deferred_ = 0;
  std::vector<std::function<void()>> deferred_;
  std::unique_ptr<agent::Convergecast> cast_;
};

/// Observation 3.4 / Theorem 4.7: the iterated (M,W)-controller.
class IteratedController : public IController {
 public:
  using Callback = BaseController::Callback;

  struct Options {
    bool track_domains = true;
    /// Counting-only instances (App. A's parallel (U/2, U/4)-controller)
    /// grant permits but never apply topological changes themselves.
    /// Simulator only.
    bool apply_events = true;
    /// Serial tracking is only supported when the first iteration is final
    /// (M <= 4*max(W,1)), which covers every application in §5.
    Interval serials;
    /// Forwarded to every base-controller iteration (§5.3).
    std::function<void(NodeId, std::uint64_t)> on_pass_down;

    // The rest is simulator only; see DistributedController::Options.

    /// Armed/disarmed at *this* wrapper's submit boundary — one token per
    /// request across every replay the rotation performs.  Deliberately
    /// not forwarded to the inner iterations (that would double-arm).
    sim::Watchdog* watchdog = nullptr;
    /// Forwarded to every iteration.
    bool allow_unreliable_transport = false;
    /// Crash stack, forwarded to every iteration.  The wrapper also
    /// installs the watchdog death probe itself, over whichever instance
    /// is current, so the orphan-lock release wave survives rotation.
    sim::CrashDriver* crashes = nullptr;
    agent::Durability durability = agent::Durability::kVolatile;
    bool meter_persistence = false;
    /// Volatile whiteboards only: how many times a crash-failed request is
    /// resubmitted before its rejection is surfaced.  The watchdog token
    /// armed at this wrapper's boundary stays armed across redrives, so a
    /// request can never ping-pong forever unnoticed.
    std::uint32_t crash_redrives = 2;
  };

  /// Over the centralized controller: verdicts arrive before submit
  /// returns.
  IteratedController(tree::DynamicTree& tree, std::uint64_t M,
                     std::uint64_t W, std::uint64_t U, Options options);
  IteratedController(tree::DynamicTree& tree, std::uint64_t M,
                     std::uint64_t W, std::uint64_t U)
      : IteratedController(tree, M, W, U, Options{}) {}
  /// Over the simulator: verdicts arrive as `net`'s queue runs.
  IteratedController(sim::Network& net, tree::DynamicTree& tree,
                     std::uint64_t M, std::uint64_t W, std::uint64_t U,
                     Options options);
  IteratedController(sim::Network& net, tree::DynamicTree& tree,
                     std::uint64_t M, std::uint64_t W, std::uint64_t U)
      : IteratedController(net, tree, M, W, U, Options{}) {}
  ~IteratedController() override;

  IteratedController(const IteratedController&) = delete;
  IteratedController& operator=(const IteratedController&) = delete;

  void submit(const RequestSpec& spec, Callback done);
  void submit_event(NodeId u, Callback done);
  void submit_add_leaf(NodeId parent, Callback done);
  void submit_add_internal_above(NodeId child, Callback done);
  void submit_remove(NodeId v, Callback done);

  // IController: the centralized stack's synchronous facade.
  Result request_event(NodeId u) override;
  Result request_add_leaf(NodeId parent) override;
  Result request_add_internal_above(NodeId child) override;
  Result request_remove(NodeId v) override;

  /// Moves (centralized) or messages (simulator) so far.
  [[nodiscard]] std::uint64_t cost() const override;
  [[nodiscard]] std::uint64_t messages_used() const { return cost(); }
  [[nodiscard]] std::uint64_t permits_granted() const override;

  [[nodiscard]] std::uint64_t iterations() const { return iterations_; }
  /// True once every future request will be rejected (the pipeline is
  /// spent, or the final iteration has started its reject wave).
  [[nodiscard]] bool done() const {
    return phase_ == Phase::kDone ||
           (inner_ && inner_->reject_wave_started());
  }
  /// Unused permits across the pipeline (root storage + packages).
  [[nodiscard]] std::uint64_t unused_permits() const;
  /// The active base controller (null between iterations and once done),
  /// for audits.
  [[nodiscard]] const BaseController* inner() const { return inner_.get(); }
  /// No request is inside a base controller.
  [[nodiscard]] bool quiescent() const { return inflight_ == 0; }

  /// Forwarded to the current iteration's controller (see
  /// DistributedController::crash_recover); false between iterations.
  bool crash_recover();

 protected:
  /// `terminating`: the Obs. 2.1 transform (see TerminatingController).
  IteratedController(sim::Network* net, tree::DynamicTree& tree,
                     std::uint64_t M, std::uint64_t W, std::uint64_t U,
                     Options options, bool terminating);

  void terminate(std::function<void()> on_done);
  void terminate_now();
  [[nodiscard]] bool terminated() const { return terminated_; }

 private:
  enum class Phase : std::uint8_t { kIterating, kFinal, kTrivial, kDone };

  void dispatch(const RequestSpec& spec, Callback done,
                std::uint32_t redrives_left);
  void start_iteration(std::uint64_t Mi);
  std::unique_ptr<BaseController> make_base(const Params& params,
                                            bool signal_exhaustion);
  void rotate();
  void maybe_finish_drain();
  void apply_trivial(const RequestSpec& spec, Result& r);
  /// The terminating transform's verdict once the pipeline is spent or
  /// frozen; termination is charged when the first one is delivered.
  void deliver_terminated(Callback done);
  void mark_terminated();

  Stack stack_;
  tree::DynamicTree& tree_;
  std::uint64_t m_, w_, u_;
  Options options_;
  const bool terminating_;

  std::unique_ptr<BaseController> inner_;
  Phase phase_ = Phase::kIterating;
  bool draining_ = false;
  /// terminate() was called: no more grants once the requests in flight
  /// drain, then `on_frozen_` fires.
  bool frozen_ = false;
  std::function<void()> on_frozen_;
  bool terminated_ = false;
  std::uint64_t inflight_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t trivial_storage_ = 0;  ///< W = 0 tail permits
  std::vector<std::pair<RequestSpec, Callback>> pending_;
  std::uint64_t cost_base_ = 0;     ///< cost of retired iterations
  std::uint64_t granted_base_ = 0;  ///< grants of retired iterations
  bool wave_charged_ = false;
};

/// Observation 2.1: the terminating (M,W)-controller.  Never rejects: when
/// the pipeline is spent it terminates (one broadcast and upcast, 2n
/// messages, waiting for granted events to occur) and answers kTerminated
/// from then on, with M-W <= granted <= M.
class TerminatingController final : public IteratedController {
 public:
  TerminatingController(tree::DynamicTree& tree, std::uint64_t M,
                        std::uint64_t W, std::uint64_t U,
                        Options options = {})
      : TerminatingController(nullptr, tree, M, W, U, std::move(options)) {}
  TerminatingController(sim::Network& net, tree::DynamicTree& tree,
                        std::uint64_t M, std::uint64_t W, std::uint64_t U,
                        Options options = {})
      : TerminatingController(&net, tree, M, W, U, std::move(options)) {}
  /// Over the simulator when `net` is set, else the centralized stack.
  TerminatingController(sim::Network* net, tree::DynamicTree& tree,
                        std::uint64_t M, std::uint64_t W, std::uint64_t U,
                        Options options)
      : IteratedController(net, tree, M, W, U, std::move(options),
                           /*terminating=*/true) {}

  using IteratedController::terminated;
  /// Terminate from outside (adaptive rotation): drain, broadcast/upcast,
  /// then `on_done` fires (at once on the centralized stack).  Idempotent.
  using IteratedController::terminate;
  /// terminate() on the centralized stack, which finishes before it
  /// returns.
  using IteratedController::terminate_now;
};

}  // namespace dyncon::core
