#pragma once

// Node crash/restart adversary (ROADMAP open item 3).
//
// The link-level adversaries in sim/fault.hpp decide message fates; this
// layer decides *node* fates.  A crash takes a node's volatile state down
// with it — whoever registered as a CrashListener (the distributed
// controllers) learns about each transition and applies the semantic
// damage: wiping whiteboards, dooming the lock holder, killing parked
// agents.  The transport-level effect composes with the existing
// fault/delay/channel stack through CrashFault, a FaultPolicy that drops
// every transmission touching a down endpoint, so an ARQ channel riding
// the same network bridges the outage with ordinary retransmissions.
//
// Determinism contract (PR 5/6): the schedule is a *pure function* of
// (node, time) under a construction-time salt — the StallFault idiom — so
// no RNG draw order is perturbed, and the same seed yields byte-identical
// runs at any --jobs/--shards.  The driver pre-schedules every
// crash/restart transition at start(), so their event-queue sequence
// numbers are fixed before any request enters the system.
//
// Model boundaries (PROTOCOL.md §9):
//   * only nodes known at start() crash (ids >= the start limit never go
//     down — nodes born mid-run are outside the scheduled adversary);
//   * one node is immune (the root: it hosts Storage, the controller's
//     identity);
//   * down windows are finite (down_len < period), so every retransmission
//     eventually lands and the event queue drains.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace dyncon::sim {

/// Seeded, pure-function crash windows.  A salted hash marks
/// `node_fraction` of the eligible nodes crash-prone; a crash-prone node is
/// down for `down_len` ticks every `period` ticks at a per-node phase.  The
/// first window of every node starts at or after `period`, so t=0 setup
/// never runs against a dead node.
class CrashSchedule {
 public:
  /// A crash-free schedule (down() is always false).
  CrashSchedule() = default;

  CrashSchedule(Rng rng, double node_fraction, SimTime period,
                SimTime down_len);

  /// Nodes with id >= `limit` never crash (born after the adversary was
  /// fixed).  kNoNode means "no limit".
  void set_limit(NodeId limit) { limit_ = limit; }
  /// One node that never crashes (the tree root).
  void set_immune(NodeId node) { immune_ = node; }

  [[nodiscard]] bool crash_prone(NodeId v) const;
  /// Is `v` down at `now`?  Pure function; CrashFault and the CrashDriver
  /// both consult it, so the transport damage and the listener callbacks
  /// can never disagree.
  [[nodiscard]] bool down(NodeId v, SimTime now) const;
  /// Ticks until `v` is back up (0 when it is not down at `now`).
  [[nodiscard]] SimTime down_for(NodeId v, SimTime now) const;

  [[nodiscard]] bool crash_free() const {
    return node_fraction_ == 0.0 || down_len_ == 0;
  }
  [[nodiscard]] SimTime period() const { return period_; }
  [[nodiscard]] SimTime down_len() const { return down_len_; }
  [[nodiscard]] double node_fraction() const { return node_fraction_; }
  [[nodiscard]] std::string name() const;

  /// Start times of every down window of `v` in (0, horizon], ascending.
  [[nodiscard]] std::vector<SimTime> windows(NodeId v, SimTime horizon) const;

 private:
  [[nodiscard]] SimTime phase_of(NodeId v) const;

  double node_fraction_ = 0.0;
  SimTime period_ = 1, down_len_ = 0;
  std::uint64_t salt_ = 0;
  NodeId limit_ = kNoNode;
  NodeId immune_ = kNoNode;
};

/// The transport face of the crash adversary: any transmission whose
/// sender or receiver is down at send time is lost.  Compose it with the
/// link-level adversaries via ComposedFault (see make_crash_stack) — a
/// surviving reliable channel then retransmits across the outage.
class CrashFault final : public FaultPolicy {
 public:
  explicit CrashFault(std::shared_ptr<const CrashSchedule> schedule);
  [[nodiscard]] FaultDecision on_send(NodeId from, NodeId to, MsgKind,
                                      std::uint64_t, SimTime now) override;
  [[nodiscard]] bool fault_free() const override {
    return schedule_->crash_free();
  }
  [[nodiscard]] std::string name() const override;

 private:
  std::shared_ptr<const CrashSchedule> schedule_;
};

/// `base` (possibly null, for "crash only") composed with a CrashFault
/// over `schedule`.
[[nodiscard]] std::unique_ptr<FaultPolicy> make_crash_stack(
    std::unique_ptr<FaultPolicy> base,
    std::shared_ptr<const CrashSchedule> schedule);

/// Protocol-layer observer of node transitions.  Callbacks fire from the
/// event loop in listener registration order.
class CrashListener {
 public:
  virtual ~CrashListener() = default;
  virtual void on_crash(NodeId v) = 0;
  virtual void on_restart(NodeId v) = 0;
};

/// Turns a CrashSchedule into event-queue transitions: start() schedules a
/// crash event at each window start and a restart event at each window
/// end, over [0, horizon].  Each transition bumps the crash.* counters and
/// notifies the listeners.
class CrashDriver {
 public:
  CrashDriver(EventQueue& queue, std::shared_ptr<const CrashSchedule> schedule);

  CrashDriver(const CrashDriver&) = delete;
  CrashDriver& operator=(const CrashDriver&) = delete;

  void add_listener(CrashListener* l);
  void remove_listener(CrashListener* l);

  /// Schedule every transition of nodes [0, limit) up to and including
  /// `horizon`.  Call once, before submitting work; also stamps the
  /// schedule-consulting helpers' node limit.
  void start(NodeId limit, SimTime horizon);

  [[nodiscard]] const CrashSchedule& schedule() const { return *schedule_; }
  [[nodiscard]] bool down(NodeId v) const {
    return schedule_->down(v, queue_.now());
  }
  /// Any scheduled node currently down?  The watchdog death probe treats
  /// an ongoing outage as "recovery still plausible" and re-arms.
  [[nodiscard]] bool any_down() const;

  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

 private:
  void fire_crash(NodeId v);
  void fire_restart(NodeId v);

  EventQueue& queue_;
  std::shared_ptr<const CrashSchedule> schedule_;
  std::vector<CrashListener*> listeners_;
  NodeId limit_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
};

}  // namespace dyncon::sim
