#pragma once

// Typed trace events.
//
// Every event is an enum tag plus a POD payload (two generic operand
// slots whose meaning is fixed per kind — see the table in
// docs/OBSERVABILITY.md), so recording one is an O(1) copy, and a failing
// test or fuzz run can dump the tail as formatted lines or as JSONL for
// post-mortem tooling.
//
// Emission mirrors the metrics registry: protocol layers call
// `obs::emit(...)`, which is a single branch unless an EventTrace has been
// installed (`ScopedTrace`).

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/ids.hpp"

namespace dyncon::obs {

enum class EventKind : std::uint8_t {
  kPermitGranted,     ///< node=origin, a=serial (or ~0), b=permits left there
  kRequestRejected,   ///< node=origin
  kRequestMoot,       ///< node=origin
  kRequestExhausted,  ///< node=origin
  kPackageCreated,    ///< node=host, a=level, b=size
  kPackageSplit,      ///< node=host, a=level before split, b=size of each half
  kPackageStatic,     ///< node=host, a=size
  kWaveStart,         ///< node=root, a=alive nodes flooded
  kWaveEnd,           ///< node=root
  kLinkAdded,         ///< node=new node, a=parent
  kLinkRemoved,       ///< node=removed node, a=parent
  kAgentHop,          ///< node=from, a=agent id, b=0 up / 1 down
  kLockWait,          ///< node=where, a=agent id
  kIterationStart,    ///< a=iteration index, b=M_i
  kIterationRotate,   ///< a=iteration index, b=unused permits carried over
  kKindCount__
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

/// POD payload; the ring stores it by value.
struct TraceEvent {
  EventKind kind{};
  SimTime time = 0;
  NodeId node = kNoNode;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// "[t=3] PermitGranted node=5 a=7 b=1".
[[nodiscard]] std::string format_event(const TraceEvent& event);

/// One compact JSON object (no trailing newline).
[[nodiscard]] std::string event_json(const TraceEvent& event);

/// Bounded in-memory event ring (keeps the most recent `capacity` events).
class EventTrace {
 public:
  explicit EventTrace(std::size_t capacity = 4096) : capacity_(capacity) {}

  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record one event (no-op when disabled).
  void record(const TraceEvent& event);

  /// Most recent events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> tail_events(std::size_t n) const;
  /// Most recent events, formatted for humans, oldest first.
  [[nodiscard]] std::vector<std::string> tail(std::size_t n = 64) const;
  /// JSONL dump of the most recent `n` events (one object per line).
  void dump_jsonl(std::ostream& os, std::size_t n = 64) const;

  /// Events offered while enabled (monotone; unaffected by ring eviction).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Events evicted by the capacity bound — nonzero means the tail is
  /// truncated, and failure dumps should say so instead of presenting the
  /// ring as the whole story.
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  void clear();

 private:
  std::size_t capacity_;
  bool enabled_ = false;
  std::deque<TraceEvent> ring_;
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
};

namespace detail {
// thread_local for the same reason as the metrics registry: parallel-sweep
// workers each install their own trace (or none); traces are never shared
// across threads.
inline thread_local EventTrace* g_trace = nullptr;
}  // namespace detail

[[nodiscard]] inline EventTrace* trace() { return detail::g_trace; }
inline void install_trace(EventTrace* t) { detail::g_trace = t; }

/// Emit a typed event to the installed trace; one branch when none is.
inline void emit(const TraceEvent& event) {
  if (EventTrace* t = detail::g_trace) t->record(event);
}

/// RAII install; restores the previous trace on scope exit.
class ScopedTrace {
 public:
  explicit ScopedTrace(EventTrace& t) : prev_(detail::g_trace) {
    detail::g_trace = &t;
  }
  ~ScopedTrace() { detail::g_trace = prev_; }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  EventTrace* prev_;
};

}  // namespace dyncon::obs
