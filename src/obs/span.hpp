#pragma once

// Causal request spans over virtual time.
//
// A Span is one closed interval of virtual time attributed to a trace: the
// root span of a trace is a user request's end-to-end life (mux arrival ->
// completion), and its children are the centralized-controller operations
// the forest serves on its behalf.  Spans are POD records emitted on
// completion (the emitter tracks the begin time), so recording one is an
// O(1) copy into a bounded ring — the same shape as obs::EventTrace, and
// with the same install discipline as the metrics registry: a thread-local
// SpanSink pointer, one branch per would-be span when none is installed,
// zero allocation on any hot path that has no sink.  The simulator stack
// records no spans; its post-mortem record is obs::EventTrace.
//
// Causality is carried OUT OF BAND.  The current (trace, span) pair lives
// in a thread-local SpanContext that emitters scope around the work they
// attribute (ScopedSpanContext).  Event timing and RNG draws are
// untouched, which is what keeps every run byte-identical with spans on or
// off and at any shard count (the forest engine merges per-shard sinks in a
// shard-invariant order; see forest/forest.cpp).

#include <cstdint>
#include <deque>
#include <map>

#include "obs/json.hpp"
#include "util/ids.hpp"

namespace dyncon::obs {

using TraceId = std::uint64_t;

/// Trace id 0 means "no trace": emitters skip span work entirely.
inline constexpr TraceId kNoTrace = 0;
/// Span id of a trace's root span (the request itself).
inline constexpr std::uint32_t kRootSpanId = 0;
/// "This span has no parent" (root spans, orphaned ops).
inline constexpr std::uint32_t kNoSpan = 0xffffffffu;
/// SpanSink::new_trace mints from this band so sink-minted trace ids never
/// collide with the mux's dense request-index ids.
inline constexpr TraceId kMintedTraceBase = TraceId{1} << 48;

enum class SpanKind : std::uint8_t {
  kRequest = 0,  ///< root: one user request end to end (op = ForestOp)
  kOp,           ///< one controller operation (op = core::Outcome)
};

[[nodiscard]] const char* span_kind_name(SpanKind kind);

/// One completed span.  `label` is an optional static string naming the op
/// (e.g. forest_op_name / outcome_name); it is serialized by value, so two
/// runs emitting the same labels produce identical JSON.
struct Span {
  TraceId trace = kNoTrace;
  SimTime begin = 0;
  SimTime end = 0;
  std::uint32_t id = kRootSpanId;
  std::uint32_t parent = kNoSpan;
  NodeId node = kNoNode;
  SpanKind kind = SpanKind::kRequest;
  std::uint8_t op = 0;
  const char* label = nullptr;
};

/// Thread-confined bounded span ring (keeps the most recent `capacity`
/// spans; `overwritten()` counts evictions so truncation is never silent).
class SpanSink {
 public:
  explicit SpanSink(std::size_t capacity = 1 << 15) : capacity_(capacity) {}

  void emit(const Span& span);

  /// Allocate the next child span id within `trace` (root is kRootSpanId;
  /// children count up from 1).  Ids are per-trace, so they are invariant
  /// under any interleaving of traces.
  [[nodiscard]] std::uint32_t open(TraceId trace);

  /// Mint a fresh trace id (for ops submitted outside any request trace).
  [[nodiscard]] TraceId new_trace() { return next_trace_++; }

  /// Recorded spans, oldest first.
  [[nodiscard]] const std::deque<Span>& entries() const { return ring_; }

  /// Spans offered (monotone; unaffected by ring eviction).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Spans evicted by the capacity bound (here or in a merged-in sink).
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }
  /// Fold eviction counts from merged-in sinks (forest shard merge).
  void add_overwritten(std::uint64_t n) { overwritten_ += n; }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  void clear();

  /// {"capacity", "recorded", "overwritten", "events": [...]}; events are
  /// serialized in ring order with all-present numeric fields except node /
  /// parent, which are omitted when unset.
  [[nodiscard]] json::Value to_json() const;

 private:
  std::size_t capacity_;
  std::deque<Span> ring_;
  std::map<TraceId, std::uint32_t> next_id_;
  TraceId next_trace_ = kMintedTraceBase;
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
};

/// The causal position new spans attach to: which trace, and which span
/// within it, the current work is being done for.
struct SpanContext {
  TraceId trace = kNoTrace;
  std::uint32_t span = kNoSpan;
};

namespace detail {
// thread_local for the same reason as the metrics registry: forest shard
// workers each install their own sink; sinks are never shared across
// threads.  The context and virtual clock ride along with the sink.
inline thread_local SpanSink* g_spans = nullptr;
inline thread_local SpanContext g_span_ctx{};
inline thread_local SimTime g_span_now = 0;
}  // namespace detail

/// The sink installed on THIS thread, or nullptr (disabled).
[[nodiscard]] inline SpanSink* spans() { return detail::g_spans; }
inline void install_spans(SpanSink* s) { detail::g_spans = s; }

/// Emit to the installed sink; one branch when none is.
inline void emit_span(const Span& span) {
  if (SpanSink* s = detail::g_spans) s->emit(span);
}

[[nodiscard]] inline SpanContext current_span() { return detail::g_span_ctx; }

/// Virtual "now" for emitters that have no event queue in reach (the
/// centralized controller): whoever drives such an emitter sets it.
[[nodiscard]] inline SimTime span_now() { return detail::g_span_now; }
inline void set_span_now(SimTime t) { detail::g_span_now = t; }

/// RAII install; restores the previous sink on scope exit.
class ScopedSpans {
 public:
  explicit ScopedSpans(SpanSink& s) : prev_(detail::g_spans) {
    detail::g_spans = &s;
  }
  ~ScopedSpans() { detail::g_spans = prev_; }
  ScopedSpans(const ScopedSpans&) = delete;
  ScopedSpans& operator=(const ScopedSpans&) = delete;

 private:
  SpanSink* prev_;
};

/// RAII span context: saves on construction, restores on destruction.  The
/// default constructor only saves — engage() sets a new context later, so
/// hot paths can keep the save unconditional and the store behind the
/// "sink installed" branch.
class ScopedSpanContext {
 public:
  ScopedSpanContext() : prev_(detail::g_span_ctx) {}
  explicit ScopedSpanContext(SpanContext ctx) : prev_(detail::g_span_ctx) {
    detail::g_span_ctx = ctx;
  }
  void engage(SpanContext ctx) { detail::g_span_ctx = ctx; }
  ~ScopedSpanContext() { detail::g_span_ctx = prev_; }
  ScopedSpanContext(const ScopedSpanContext&) = delete;
  ScopedSpanContext& operator=(const ScopedSpanContext&) = delete;

 private:
  SpanContext prev_;
};

}  // namespace dyncon::obs
