#include "core/distributed_adaptive.hpp"

#include <algorithm>
#include <utility>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "sim/watchdog.hpp"
#include "util/error.hpp"

namespace dyncon::core {

DistributedAdaptive::DistributedAdaptive(sim::Network& net,
                                         tree::DynamicTree& tree,
                                         std::uint64_t M, std::uint64_t W,
                                         Options options)
    : net_(net), tree_(tree), options_(options), w_(W), mi_(M) {
  DYNCON_REQUIRE(M >= 1, "M must be >= 1");
  if (options_.watchdog != nullptr && options_.crashes != nullptr) {
    // One probe over both instances; no short-circuit, so a doomed holder
    // in the sidecar is collected even when the main instance acted.
    options_.watchdog->add_death_probe(this, [this] {
      const bool a = main_ != nullptr && main_->crash_recover();
      const bool b = counter_ != nullptr && counter_->crash_recover();
      return a || b;
    });
  }
  start_iteration();
}

DistributedAdaptive::~DistributedAdaptive() {
  if (options_.watchdog != nullptr && options_.crashes != nullptr) {
    options_.watchdog->remove_death_probe(this);
  }
}

void DistributedAdaptive::start_iteration() {
  ++iterations_;
  obs::count("controller.iterations");
  obs::emit(obs::TraceEvent{obs::EventKind::kIterationStart,
                            net_.queue().now(), tree_.root(), iterations_,
                            mi_});
  const std::uint64_t n = std::max<std::uint64_t>(tree_.size(), 1);
  max_n_ = std::max(max_n_, n);
  ui_ = options_.policy == Policy::kChangeCount ? 2 * n : 2 * max_n_;

  TerminatingController::Options main_opts;
  main_opts.track_domains = options_.track_domains;
  main_opts.allow_unreliable_transport = options_.allow_unreliable_transport;
  main_opts.crashes = options_.crashes;
  main_opts.durability = options_.durability;
  main_opts.meter_persistence = options_.meter_persistence;
  main_opts.crash_redrives = options_.crash_redrives;
  main_ = std::make_unique<TerminatingController>(net_, tree_, mi_, w_, ui_,
                                                  main_opts);

  TerminatingController::Options counter_opts;
  counter_opts.track_domains = false;   // accounting sidecar only
  counter_opts.apply_events = false;    // counts, never applies changes
  counter_opts.allow_unreliable_transport =
      options_.allow_unreliable_transport;
  counter_opts.crashes = options_.crashes;
  counter_opts.durability = options_.durability;
  counter_opts.meter_persistence = options_.meter_persistence;
  counter_opts.crash_redrives = options_.crash_redrives;
  counter_ = std::make_unique<TerminatingController>(
      net_, tree_, std::max<std::uint64_t>(ui_ / 2, 1),
      std::max<std::uint64_t>(ui_ / 4, 1), ui_, counter_opts);
}

void DistributedAdaptive::complete_async(Callback done, Result r) {
  net_.queue().schedule_after(0, [done = std::move(done), r] { done(r); });
}

void DistributedAdaptive::begin_rotation(bool main_exhausted) {
  if (rotating_ || done_) return;
  rotating_ = true;
  pending_drains_ = 2;
  auto drained = [this, main_exhausted] {
    if (--pending_drains_ > 0) return;
    // Defer the teardown to a fresh event: this callback runs inside the
    // draining controller's own call chain, which must fully unwind before
    // the controller object may be destroyed.
    net_.queue().schedule_after(
        0, [this, main_exhausted] { finish_rotation(main_exhausted); });
  };
  main_->terminate(drained);
  counter_->terminate(drained);
}

void DistributedAdaptive::finish_rotation(bool main_exhausted) {
  {
    obs::count("controller.rotations");
    obs::emit(obs::TraceEvent{obs::EventKind::kIterationRotate,
                              net_.queue().now(), tree_.root(), iterations_,
                              main_->permits_granted()});
    // Both controllers are quiescent: broadcast/upcast counts N_{i+1} and
    // Y_i and resets the data structures.
    const std::uint64_t yi = main_->permits_granted();
    messages_base_ += main_->messages_used() + counter_->messages_used() +
                      2 * tree_.size();
    net_.charge(sim::Message::control(
                    sim::ControlTopic::kRotate,
                    std::max<std::uint64_t>(tree_.size(), yi + 1)),
                2 * tree_.size());
    granted_base_ += yi;
    main_.reset();
    counter_.reset();
    DYNCON_INVARIANT(yi <= mi_, "granted more than the iteration budget");
    mi_ -= yi;
    rotating_ = false;
    if (main_exhausted || mi_ == 0) {
      done_ = true;
    } else {
      start_iteration();
    }
    auto pend = std::move(pending_);
    pending_.clear();
    for (auto& [spec, cb] : pend) dispatch(spec, std::move(cb));
  }
}

void DistributedAdaptive::submit_to_main(const RequestSpec& spec,
                                         Callback done) {
  main_->submit(spec, [this, spec, done = std::move(done)](
                          const Result& r) mutable {
    if (r.outcome == Outcome::kTerminated) {
      // The main (M_i, W)-controller exhausted: liveness is secured, so the
      // whole controller transitions to rejecting.  The triggering request
      // is itself rejected.
      if (!done_) {
        pending_.emplace_back(spec, std::move(done));
        begin_rotation(/*main_exhausted=*/true);
      } else {
        dispatch(spec, std::move(done));
      }
      return;
    }
    done(r);
  });
}

void DistributedAdaptive::dispatch(const RequestSpec& spec, Callback done) {
  if (done_) {
    if (!wave_charged_) {
      messages_base_ += tree_.size();
      net_.charge(sim::Message::reject_wave(), tree_.size());
      wave_charged_ = true;
    }
    ++rejects_;
    complete_async(std::move(done), Result{Outcome::kRejected});
    return;
  }
  if (rotating_) {
    pending_.emplace_back(spec, std::move(done));
    return;
  }
  if (!tree_.alive(spec.subject)) {
    complete_async(std::move(done), Result{Outcome::kMoot});
    return;
  }

  if (spec.type == RequestSpec::Type::kEvent) {
    submit_to_main(spec, std::move(done));
    return;
  }

  // Topological request: it must also be counted by the parallel
  // (U_i/2, U_i/4)-controller before the main controller may grant it.
  // The counting request is registered at the root: the count's semantics
  // do not depend on the arrival node, and the sidecar's agents must not
  // stand on nodes the main controller may delete (the two controllers
  // ignore each other's locks — App. A; see DESIGN.md for the
  // substitution note).
  counter_->submit_event(
      tree_.root(),
      [this, spec, done = std::move(done)](const Result& r) mutable {
        if (r.outcome == Outcome::kTerminated) {
          // >= U_i/4 changes this iteration: rotate, replay afterwards.
          pending_.emplace_back(spec, std::move(done));
          begin_rotation(/*main_exhausted=*/false);
          return;
        }
        if (r.outcome != Outcome::kGranted) {
          done(r);  // moot etc.
          return;
        }
        if (rotating_ || done_ || !tree_.alive(spec.subject)) {
          // The world moved while we were being counted.
          dispatch(spec, std::move(done));
          return;
        }
        submit_to_main(spec, std::move(done));
      });
}

void DistributedAdaptive::submit(const RequestSpec& spec, Callback done) {
  DYNCON_REQUIRE(static_cast<bool>(done), "null completion callback");
  if (options_.watchdog != nullptr) {
    // Static label + stored origin keep arming allocation-free (PR 4).
    const sim::Watchdog::Token token =
        options_.watchdog->arm(spec.subject, request_type_name(spec.type));
    done = [wd = options_.watchdog, token,
            done = std::move(done)](const Result& r) {
      wd->disarm(token);
      done(r);
    };
  }
  dispatch(spec, std::move(done));
}

void DistributedAdaptive::submit_event(NodeId u, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kEvent, u}, std::move(done));
}

void DistributedAdaptive::submit_add_leaf(NodeId parent, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddLeaf, parent}, std::move(done));
}

void DistributedAdaptive::submit_add_internal_above(NodeId child,
                                                    Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddInternal, child},
         std::move(done));
}

void DistributedAdaptive::submit_remove(NodeId v, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kRemove, v}, std::move(done));
}

std::uint64_t DistributedAdaptive::messages_used() const {
  return messages_base_ + (main_ ? main_->messages_used() : 0) +
         (counter_ ? counter_->messages_used() : 0);
}

std::uint64_t DistributedAdaptive::permits_granted() const {
  return granted_base_ + (main_ ? main_->permits_granted() : 0);
}

}  // namespace dyncon::core
