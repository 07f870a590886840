#include "sim/crash.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dyncon::sim {

namespace {

// The same murmur3-finalizer stable-coin idiom the link adversaries use
// (fault.cpp): purely positional randomness, no draw-order coupling.
std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0,1)
}

}  // namespace

// ---- CrashSchedule ----------------------------------------------------------

CrashSchedule::CrashSchedule(Rng rng, double node_fraction, SimTime period,
                             SimTime down_len)
    : node_fraction_(node_fraction), period_(period), down_len_(down_len) {
  DYNCON_REQUIRE(node_fraction >= 0.0 && node_fraction <= 1.0,
                 "node_fraction out of range");
  DYNCON_REQUIRE(period >= 1 && down_len < period,
                 "a crashed node must restart before its next crash, or it "
                 "would never come back");
  salt_ = rng.next();
}

bool CrashSchedule::crash_prone(NodeId v) const {
  if (crash_free()) return false;
  if (limit_ != kNoNode && v >= limit_) return false;
  if (v == immune_) return false;
  return to_unit(mix(v ^ salt_)) < node_fraction_;
}

SimTime CrashSchedule::phase_of(NodeId v) const {
  return mix(v ^ salt_ ^ 0xdeadbea7ULL) % period_;
}

bool CrashSchedule::down(NodeId v, SimTime now) const {
  return down_for(v, now) != 0;
}

SimTime CrashSchedule::down_for(NodeId v, SimTime now) const {
  if (!crash_prone(v)) return 0;
  const SimTime phase = phase_of(v);
  const SimTime pos = (now + phase) % period_;
  if (pos >= down_len_) return 0;
  // Warmup rule: the window starting at now - pos only counts if that start
  // is at or after one full period, so there is no "crashed at birth" state
  // the driver never announced.  (now < pos would make the unsigned
  // subtraction wrap and fabricate exactly such a window.)
  if (now < pos || now - pos < period_) return 0;
  return down_len_ - pos;
}

std::vector<SimTime> CrashSchedule::windows(NodeId v, SimTime horizon) const {
  std::vector<SimTime> starts;
  if (!crash_prone(v)) return starts;
  const SimTime phase = phase_of(v);
  // Window starts are the times s with (s + phase) % period == 0, s >= period.
  SimTime s = (period_ - phase % period_) % period_;
  while (s < period_) s += period_;
  for (; s <= horizon; s += period_) starts.push_back(s);
  return starts;
}

std::string CrashSchedule::name() const {
  if (crash_free()) return "crash(none)";
  return "crash(f=" + std::to_string(node_fraction_) +
         ",down=" + std::to_string(down_len_) + "/" + std::to_string(period_) +
         ")";
}

// ---- CrashFault -------------------------------------------------------------

CrashFault::CrashFault(std::shared_ptr<const CrashSchedule> schedule)
    : schedule_(std::move(schedule)) {
  DYNCON_REQUIRE(schedule_ != nullptr, "CrashFault needs a schedule");
}

FaultDecision CrashFault::on_send(NodeId from, NodeId to, MsgKind,
                                  std::uint64_t, SimTime now) {
  FaultDecision d;
  d.drop = schedule_->down(from, now) || schedule_->down(to, now);
  if (d.drop) {
    static thread_local obs::CounterHandle drops("crash.drops");
    drops.add();
  }
  return d;
}

std::string CrashFault::name() const { return schedule_->name(); }

std::unique_ptr<FaultPolicy> make_crash_stack(
    std::unique_ptr<FaultPolicy> base,
    std::shared_ptr<const CrashSchedule> schedule) {
  auto crash = std::make_unique<CrashFault>(std::move(schedule));
  if (!base) return crash;
  std::vector<std::unique_ptr<FaultPolicy>> parts;
  parts.push_back(std::move(base));
  parts.push_back(std::move(crash));
  return std::make_unique<ComposedFault>(std::move(parts));
}

// ---- CrashDriver ------------------------------------------------------------

CrashDriver::CrashDriver(EventQueue& queue,
                         std::shared_ptr<const CrashSchedule> schedule)
    : queue_(queue), schedule_(std::move(schedule)) {
  DYNCON_REQUIRE(schedule_ != nullptr, "CrashDriver needs a schedule");
}

void CrashDriver::add_listener(CrashListener* l) {
  DYNCON_REQUIRE(l != nullptr, "null crash listener");
  listeners_.push_back(l);
}

void CrashDriver::remove_listener(CrashListener* l) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), l),
                   listeners_.end());
}

void CrashDriver::start(NodeId limit, SimTime horizon) {
  DYNCON_REQUIRE(limit_ == 0, "CrashDriver::start called twice");
  limit_ = limit;
  // Enumerate transitions in node order; the queue's FIFO tie-break then
  // fixes the order of same-tick transitions across nodes, independent of
  // anything that happens later in the run.
  for (NodeId v = 0; v < limit; ++v) {
    for (const SimTime s : schedule_->windows(v, horizon)) {
      queue_.schedule_at(s, [this, v] { fire_crash(v); });
      // The restart is always scheduled, even past the horizon: a down
      // window left open forever would strand retransmissions.
      queue_.schedule_at(s + schedule_->down_len(), [this, v] {
        fire_restart(v);
      });
    }
  }
}

bool CrashDriver::any_down() const {
  for (NodeId v = 0; v < limit_; ++v) {
    if (schedule_->down(v, queue_.now())) return true;
  }
  return false;
}

void CrashDriver::fire_crash(NodeId v) {
  ++crashes_;
  static thread_local obs::CounterHandle crashes("crash.node_crashes");
  crashes.add();
  for (CrashListener* l : listeners_) l->on_crash(v);
}

void CrashDriver::fire_restart(NodeId v) {
  ++restarts_;
  static thread_local obs::CounterHandle restarts("crash.node_restarts");
  restarts.add();
  for (CrashListener* l : listeners_) l->on_restart(v);
}

}  // namespace dyncon::sim
