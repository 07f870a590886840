#include "core/iterated.hpp"

#include <algorithm>
#include <utility>

#include "agent/convergecast.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "sim/watchdog.hpp"

namespace dyncon::core {

namespace {

/// §3's controller as a BaseController.  An adapter rather than a second
/// base class keeps CentralizedController, which the forest holds once per
/// resident tree, at one vtable pointer.
class CentralizedBase final : public BaseController {
 public:
  CentralizedBase(tree::DynamicTree& tree, const Params& params,
                  CentralizedController::Options options)
      : ctrl_(tree, params, std::move(options)) {}

  void submit(const RequestSpec& spec, Callback done) override {
    ctrl_.submit(spec, std::move(done));
  }
  std::uint64_t cost() const override { return ctrl_.cost(); }
  std::uint64_t permits_granted() const override {
    return ctrl_.permits_granted();
  }
  std::uint64_t unused_permits() const override {
    return ctrl_.unused_permits();
  }
  const Params& params() const override { return ctrl_.params(); }
  bool reject_wave_started() const override {
    return ctrl_.reject_wave_started();
  }
  const DomainTracker* domains() const override { return ctrl_.domains(); }

 private:
  CentralizedController ctrl_;
};

}  // namespace

// ---- Stack -----------------------------------------------------------------

Stack::Stack(sim::Network* net) : net_(net) {}

Stack::~Stack() = default;

void Stack::run_deferred() {
  // Index-based: deferred work may defer more.  A throw leaves the rest for
  // the next outermost call.
  while (next_deferred_ < deferred_.size()) {
    auto fn = std::move(deferred_[next_deferred_++]);
    fn();
  }
  deferred_.clear();
  next_deferred_ = 0;
}

void Stack::complete(Callback done, Result r) {
  post([done = std::move(done), r] { done(r); });
}

void Stack::after_unwind(std::function<void()> fn) {
  if (net_ != nullptr) {
    net_->queue().schedule_after(0, std::move(fn));
  } else if (depth_ == 0) {
    fn();
  } else {
    deferred_.push_back(std::move(fn));
  }
}

std::uint64_t Stack::charge(const sim::Message& prototype,
                            std::uint64_t count) {
  if (net_ != nullptr) net_->charge(prototype, count);
  return count;
}

std::uint64_t Stack::trivial_grant(std::uint64_t depth, std::uint64_t serial) {
  if (net_ == nullptr) return depth;
  // The agent walks to the root and back; its hops are modeled with a
  // worst-case (deepest-point) hop message.
  return charge(sim::Message::agent_hop(serial, depth, depth,
                                        /*bag_level=*/0, /*phase=*/0,
                                        /*carrying=*/true),
                2 * depth);
}

std::uint64_t Stack::rotation(std::uint64_t leftover, std::uint64_t n) {
  if (net_ == nullptr) return 0;
  return charge(sim::Message::control(sim::ControlTopic::kRotate,
                                      std::max(leftover, n)),
                2 * n);
}

std::uint64_t Stack::announce_count(std::uint64_t ni, std::uint64_t n) {
  if (net_ == nullptr) return 2 * ni;
  return charge(sim::Message::control(sim::ControlTopic::kBroadcast, ni),
                n - 1);
}

void Stack::count_nodes(tree::DynamicTree& tree,
                        std::function<void(std::uint64_t)> done) {
  if (net_ == nullptr) {
    done(tree.size());
    return;
  }
  if (!cast_) cast_ = std::make_unique<agent::Convergecast>(*net_, tree);
  cast_->count_nodes(std::move(done));
}

std::uint64_t Stack::count_messages() const {
  return cast_ ? cast_->messages() : 0;
}

// ---- IteratedController ----------------------------------------------------

IteratedController::IteratedController(tree::DynamicTree& tree,
                                       std::uint64_t M, std::uint64_t W,
                                       std::uint64_t U, Options options)
    : IteratedController(nullptr, tree, M, W, U, std::move(options),
                         /*terminating=*/false) {}

IteratedController::IteratedController(sim::Network& net,
                                       tree::DynamicTree& tree,
                                       std::uint64_t M, std::uint64_t W,
                                       std::uint64_t U, Options options)
    : IteratedController(&net, tree, M, W, U, std::move(options),
                         /*terminating=*/false) {}

IteratedController::IteratedController(sim::Network* net,
                                       tree::DynamicTree& tree,
                                       std::uint64_t M, std::uint64_t W,
                                       std::uint64_t U, Options options,
                                       bool terminating)
    : stack_(net),
      tree_(tree),
      m_(M),
      w_(W),
      u_(U),
      options_(std::move(options)),
      terminating_(terminating) {
  DYNCON_REQUIRE(M >= 1 && U >= 1, "M, U must be >= 1");
  const bool first_is_final =
      (w_ >= 1 && m_ <= 4 * w_) || (w_ == 0 && m_ <= 4);
  DYNCON_REQUIRE(options_.serials.empty() || first_is_final,
                 "serial tracking requires a single (final) iteration");
  DYNCON_REQUIRE(
      net != nullptr ||
          (options_.apply_events && options_.watchdog == nullptr &&
           !options_.allow_unreliable_transport &&
           options_.crashes == nullptr &&
           options_.durability == agent::Durability::kVolatile &&
           !options_.meter_persistence),
      "simulator-only option on the centralized stack");
  if (options_.watchdog != nullptr && options_.crashes != nullptr) {
    // The probe lives at this wrapper so it follows the current instance
    // across rotations (the iterations themselves get no watchdog).
    options_.watchdog->add_death_probe(this,
                                       [this] { return crash_recover(); });
  }
  start_iteration(m_);
}

IteratedController::~IteratedController() {
  if (options_.watchdog != nullptr && options_.crashes != nullptr) {
    options_.watchdog->remove_death_probe(this);
  }
}

bool IteratedController::crash_recover() {
  return inner_ != nullptr && inner_->crash_recover();
}

std::unique_ptr<BaseController> IteratedController::make_base(
    const Params& params, bool signal_exhaustion) {
  const Interval serials =
      iterations_ == 1 ? options_.serials : Interval{};
  if (stack_.net() == nullptr) {
    CentralizedController::Options opts;
    opts.mode = signal_exhaustion ? CentralizedController::Mode::kExhaustSignal
                                  : CentralizedController::Mode::kRejectWave;
    opts.track_domains = options_.track_domains;
    opts.serials = serials;
    opts.on_pass_down = options_.on_pass_down;
    return std::make_unique<CentralizedBase>(tree_, params, std::move(opts));
  }
  DistributedController::Options opts;
  opts.mode = signal_exhaustion ? DistributedController::Mode::kExhaustSignal
                                : DistributedController::Mode::kRejectWave;
  opts.track_domains = options_.track_domains;
  opts.apply_events = options_.apply_events;
  opts.serials = serials;
  opts.on_pass_down = options_.on_pass_down;
  opts.allow_unreliable_transport = options_.allow_unreliable_transport;
  opts.crashes = options_.crashes;
  opts.durability = options_.durability;
  opts.meter_persistence = options_.meter_persistence;
  // Liveness is enforced at this wrapper's submit boundary, not per
  // iteration: the watchdog is intentionally not forwarded here.
  return std::make_unique<DistributedController>(*stack_.net(), tree_, params,
                                                 std::move(opts));
}

void IteratedController::start_iteration(std::uint64_t Mi) {
  ++iterations_;
  obs::count("controller.iterations");
  obs::emit(obs::TraceEvent{obs::EventKind::kIterationStart, stack_.now(),
                            tree_.root(), iterations_, Mi});
  const bool is_final = (w_ >= 1 && Mi <= 4 * w_) || (w_ == 0 && Mi <= 4);
  std::uint64_t Wi;
  bool signal_exhaustion;
  if (is_final) {
    // Final iteration: run with the real waste budget.  For W = 0 the final
    // base iteration uses W = 1 and the trivial (1,0)-controller cleans up,
    // so the base must signal exhaustion rather than reject.
    Wi = w_ >= 1 ? w_ : 1;
    signal_exhaustion = w_ == 0 || terminating_;
    phase_ = Phase::kFinal;
  } else {
    Wi = std::max<std::uint64_t>(Mi / 2, 1);
    signal_exhaustion = true;
    phase_ = Phase::kIterating;
  }
  inner_ = make_base(Params(Mi, Wi, u_), signal_exhaustion);
}

void IteratedController::apply_trivial(const RequestSpec& spec, Result& r) {
  if (!options_.apply_events) return;
  switch (spec.type) {
    case RequestSpec::Type::kEvent:
      return;
    case RequestSpec::Type::kAddLeaf:
      r.new_node = tree_.add_leaf(spec.subject);
      return;
    case RequestSpec::Type::kAddInternal:
      r.new_node = tree_.add_internal_above(spec.subject);
      return;
    case RequestSpec::Type::kRemove:
      tree_.remove_node(spec.subject);
      return;
  }
}

void IteratedController::dispatch(const RequestSpec& spec, Callback done,
                                  std::uint32_t redrives_left) {
  if (frozen_) {
    deliver_terminated(std::move(done));
    return;
  }
  switch (phase_) {
    case Phase::kDone: {
      if (terminating_) {
        deliver_terminated(std::move(done));
        return;
      }
      if (!wave_charged_) {
        // One reject package per node (§2.2 reject wave), charged once.
        cost_base_ +=
            stack_.charge(sim::Message::reject_wave(), tree_.size());
        wave_charged_ = true;
      }
      stack_.complete(std::move(done), Result{Outcome::kRejected});
      return;
    }
    case Phase::kTrivial: {
      if (trivial_storage_ == 0) {
        phase_ = Phase::kDone;
        dispatch(spec, std::move(done), redrives_left);
        return;
      }
      if (!tree_.alive(spec.subject)) {
        // Only the simulator lets a subject die while its request waits.
        DYNCON_REQUIRE(stack_.net() != nullptr, "request subject not alive");
        stack_.complete(std::move(done), Result{Outcome::kMoot});
        return;
      }
      // Trivial (1,0)-controller: the permit travels between the root and
      // the request's arrival node.
      const NodeId arrival = spec.type == RequestSpec::Type::kAddInternal
                                 ? tree_.parent(spec.subject)
                                 : spec.subject;
      --trivial_storage_;
      ++granted_base_;
      cost_base_ += stack_.trivial_grant(tree_.depth(arrival), granted_base_);
      Result r{Outcome::kGranted};
      apply_trivial(spec, r);
      stack_.complete(std::move(done), r);
      return;
    }
    case Phase::kIterating:
    case Phase::kFinal: {
      if (draining_) {
        pending_.emplace_back(spec, std::move(done));
        return;
      }
      ++inflight_;
      inner_->submit(spec, [this, spec, redrives_left,
                            done = std::move(done)](const Result& r) mutable {
        --inflight_;
        if (r.outcome == Outcome::kExhausted) {
          pending_.emplace_back(spec, std::move(done));
          draining_ = true;
        } else if (r.crash_failed && redrives_left > 0 && !frozen_) {
          // A crash killed the agent before any verdict: re-drive the
          // request instead of surfacing the synthetic rejection.
          obs::count("recovery.redrives");
          if (!tree_.alive(spec.subject)) {
            done(Result{Outcome::kMoot});
          } else {
            dispatch(spec, std::move(done), redrives_left - 1);
          }
        } else {
          // The terminating transform never rejects, with one carve-out: a
          // crash-failed request whose redrive budget ran out carries its
          // flag to the caller.
          DYNCON_INVARIANT(!terminating_ || r.outcome != Outcome::kRejected ||
                               r.crash_failed,
                           "terminating controller must never reject");
          done(r);
        }
        maybe_finish_drain();
      });
      return;
    }
  }
}

void IteratedController::maybe_finish_drain() {
  if (inflight_ != 0) return;
  if (frozen_) {
    // Flush everything still pending as terminated, then notify.
    auto pend = std::move(pending_);
    pending_.clear();
    for (auto& [spec, cb] : pend) deliver_terminated(std::move(cb));
    if (on_frozen_) {
      auto cb = std::move(on_frozen_);
      on_frozen_ = nullptr;
      cb();
    }
    return;
  }
  if (draining_) {
    // Rotation destroys the base controller whose callback is running.
    stack_.after_base_verdict([this] {
      if (draining_ && inflight_ == 0 && !frozen_) rotate();
    });
  }
}

void IteratedController::rotate() {
  DYNCON_INVARIANT(inner_ != nullptr, "rotate without an active iteration");
  const std::uint64_t Wi = inner_->params().W();
  const std::uint64_t L = inner_->unused_permits();
  // Lemma 3.2 liveness (via Lemma 4.5's reduction on the simulator),
  // checked live: at the first would-be reject, unused permits never
  // exceed the waste.  A crash adversary voids the bound: permits rescued
  // from killed agents sit as static packages nobody may ever claim.
  const bool crashy = options_.crashes != nullptr &&
                      !options_.crashes->schedule().crash_free();
  DYNCON_INVARIANT(crashy || L <= Wi,
                   "iteration leftover exceeds waste bound");
  obs::count("controller.rotations");
  obs::emit(obs::TraceEvent{obs::EventKind::kIterationRotate, stack_.now(),
                            tree_.root(), iterations_, L});
  cost_base_ += inner_->cost() + stack_.rotation(L, tree_.size());
  granted_base_ += inner_->permits_granted();
  const bool was_final = phase_ == Phase::kFinal;
  inner_.reset();
  draining_ = false;

  if (was_final) {
    if (w_ == 0 && L > 0) {
      trivial_storage_ = L;  // the trivial (1,0) tail
      phase_ = Phase::kTrivial;
    } else {
      phase_ = Phase::kDone;
    }
  } else if (L == 0) {
    phase_ = Phase::kDone;
  } else {
    start_iteration(L);
  }

  auto pend = std::move(pending_);
  pending_.clear();
  for (auto& [spec, cb] : pend) {
    dispatch(spec, std::move(cb), options_.crash_redrives);
  }
}

void IteratedController::deliver_terminated(Callback done) {
  stack_.post([this, done = std::move(done)] {
    mark_terminated();
    done(Result{Outcome::kTerminated});
  });
}

void IteratedController::mark_terminated() {
  if (terminated_) return;
  terminated_ = true;
  // Broadcast of the termination signal + upcast of acknowledgements
  // (waiting for granted events to occur): Obs. 2.1's additive O(n) term.
  cost_base_ += stack_.charge(
      sim::Message::control(sim::ControlTopic::kTerminate, tree_.size()),
      2 * tree_.size());
}

void IteratedController::terminate(std::function<void()> on_done) {
  DYNCON_REQUIRE(static_cast<bool>(on_done), "null terminate callback");
  if (terminated_) {
    stack_.after_unwind(std::move(on_done));
    return;
  }
  // Stop granting: drain, then terminate.
  frozen_ = true;
  on_frozen_ = [this, on_done = std::move(on_done)] {
    mark_terminated();
    on_done();
  };
  maybe_finish_drain();
}

void IteratedController::submit(const RequestSpec& spec, Callback done) {
  DYNCON_REQUIRE(static_cast<bool>(done), "null completion callback");
  if (options_.watchdog != nullptr) {
    // Static label + stored origin keep arming allocation-free.
    const sim::Watchdog::Token token =
        options_.watchdog->arm(spec.subject, request_type_name(spec.type));
    done = [wd = options_.watchdog, token,
            done = std::move(done)](const Result& r) {
      wd->disarm(token);
      done(r);
    };
  }
  stack_.enter(
      [&] { dispatch(spec, std::move(done), options_.crash_redrives); });
}

void IteratedController::submit_event(NodeId u, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kEvent, u}, std::move(done));
}

void IteratedController::submit_add_leaf(NodeId parent, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddLeaf, parent}, std::move(done));
}

void IteratedController::submit_add_internal_above(NodeId child,
                                                   Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddInternal, child},
         std::move(done));
}

void IteratedController::submit_remove(NodeId v, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kRemove, v}, std::move(done));
}

Result IteratedController::request_event(NodeId u) {
  return stack_.run_inline([&](Callback done) { submit_event(u, done); });
}

Result IteratedController::request_add_leaf(NodeId parent) {
  return stack_.run_inline(
      [&](Callback done) { submit_add_leaf(parent, done); });
}

Result IteratedController::request_add_internal_above(NodeId child) {
  DYNCON_REQUIRE(tree_.alive(child) && child != tree_.root(),
                 "bad add_internal request");
  return stack_.run_inline(
      [&](Callback done) { submit_add_internal_above(child, done); });
}

Result IteratedController::request_remove(NodeId v) {
  return stack_.run_inline([&](Callback done) { submit_remove(v, done); });
}

std::uint64_t IteratedController::cost() const {
  return cost_base_ + (inner_ ? inner_->cost() : 0);
}

std::uint64_t IteratedController::permits_granted() const {
  return granted_base_ + (inner_ ? inner_->permits_granted() : 0);
}

std::uint64_t IteratedController::unused_permits() const {
  return trivial_storage_ + (inner_ ? inner_->unused_permits() : 0);
}

void IteratedController::terminate_now() {
  DYNCON_REQUIRE(stack_.net() == nullptr,
                 "terminate_now needs the centralized stack");
  terminate([] {});
  DYNCON_INVARIANT(terminated_, "termination still pending");
}

}  // namespace dyncon::core
