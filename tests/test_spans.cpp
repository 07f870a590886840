// Causal span tests: the SpanSink ring and context plumbing, root spans +
// latency histograms from the request mux, and the forest-level contract
// that the whole causal record (spans, timeline, registry) is byte-identical
// at any shard count — and that the registry itself is identical with spans
// on or off.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "workload/request_mux.hpp"

namespace dyncon {
namespace {

// ---- sink mechanics ---------------------------------------------------------

TEST(SpanSink, RingBoundsAndCountsEvictions) {
  obs::SpanSink sink(3);
  for (std::uint64_t t = 1; t <= 5; ++t) {
    obs::Span s;
    s.trace = t;
    sink.emit(s);
  }
  EXPECT_EQ(sink.recorded(), 5u);
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.overwritten(), 2u);
  EXPECT_EQ(sink.entries().front().trace, 3u);  // oldest surviving
  EXPECT_EQ(sink.entries().back().trace, 5u);
  sink.add_overwritten(7);  // shard-merge fold-in
  EXPECT_EQ(sink.overwritten(), 9u);
  sink.clear();
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_EQ(sink.overwritten(), 0u);
  EXPECT_EQ(sink.size(), 0u);
}

TEST(SpanSink, OpenMintsPerTraceChildIds) {
  obs::SpanSink sink;
  EXPECT_EQ(sink.open(10), 1u);  // children count up from 1; 0 is the root
  EXPECT_EQ(sink.open(10), 2u);
  EXPECT_EQ(sink.open(11), 1u);  // independent per trace
  EXPECT_EQ(sink.open(10), 3u);

  // Minted trace ids live in their own band, never colliding with the
  // mux's dense 1-based request indices.
  const obs::TraceId a = sink.new_trace();
  const obs::TraceId b = sink.new_trace();
  EXPECT_GE(a, obs::kMintedTraceBase);
  EXPECT_EQ(b, a + 1);
}

TEST(SpanSink, JsonOmitsUnsetOptionalFields) {
  obs::SpanSink sink(8);
  obs::Span root;
  root.trace = 1;
  root.kind = obs::SpanKind::kRequest;
  root.begin = 5;
  root.end = 9;
  sink.emit(root);  // no parent, no node, no label
  obs::Span op;
  op.trace = 1;
  op.id = sink.open(1);
  op.parent = obs::kRootSpanId;
  op.kind = obs::SpanKind::kOp;
  op.node = 3;
  op.label = "agent";
  sink.emit(op);

  const obs::json::Value doc = sink.to_json();
  EXPECT_EQ(doc.find("recorded")->as_uint(), 2u);
  EXPECT_EQ(doc.find("overwritten")->as_uint(), 0u);
  const auto& events = doc.find("events")->as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].find("parent"), nullptr);
  EXPECT_EQ(events[0].find("node"), nullptr);
  EXPECT_EQ(events[0].find("label"), nullptr);
  EXPECT_EQ(events[0].find("kind")->as_string(), "request");
  ASSERT_NE(events[1].find("parent"), nullptr);
  EXPECT_EQ(events[1].find("parent")->as_uint(), 0u);
  EXPECT_EQ(events[1].find("node")->as_uint(), 3u);
  EXPECT_EQ(events[1].find("label")->as_string(), "agent");
  EXPECT_EQ(events[1].find("kind")->as_string(), "op");
}

TEST(SpanContext, ScopedInstallAndContextRestore) {
  ASSERT_EQ(obs::spans(), nullptr) << "a sink leaked from another test";
  obs::Span s;
  s.trace = 1;
  obs::emit_span(s);  // no sink: one branch, no effect

  obs::SpanSink ring(4);
  {
    obs::ScopedSpans scope(ring);
    ASSERT_EQ(obs::spans(), &ring);
    obs::emit_span(s);

    EXPECT_EQ(obs::current_span().trace, obs::kNoTrace);
    {
      obs::ScopedSpanContext ctx(obs::SpanContext{42, 7});
      EXPECT_EQ(obs::current_span().trace, 42u);
      EXPECT_EQ(obs::current_span().span, 7u);
      obs::ScopedSpanContext deferred;  // save-only, then engage
      deferred.engage(obs::SpanContext{43, 0});
      EXPECT_EQ(obs::current_span().trace, 43u);
    }
    EXPECT_EQ(obs::current_span().trace, obs::kNoTrace);
  }
  EXPECT_EQ(obs::spans(), nullptr);
  EXPECT_EQ(ring.recorded(), 1u);
}

// ---- mux root spans + latency histograms ------------------------------------

TEST(MuxSpans, RootSpanPerRequestAndLatencyHistogram) {
  workload::MuxConfig cfg;
  cfg.users = 4;
  cfg.trees = 3;
  cfg.requests_per_user = 3;

  obs::Registry reg;
  obs::SpanSink sink(64);
  obs::ScopedMetrics metrics(reg);
  obs::ScopedSpans spans(sink);

  workload::RequestMux mux(cfg, 17);
  const auto initial = mux.initial_requests();
  ASSERT_EQ(initial.size(), cfg.users);
  std::set<obs::TraceId> traces;
  for (const auto& r : initial) {
    EXPECT_NE(r.trace, obs::kNoTrace);
    traces.insert(r.trace);
  }
  EXPECT_EQ(traces.size(), cfg.users) << "trace ids are unique per request";

  // Drain every user; each completion closes the pending request's root
  // span (including the final one, closed by the exhausted call).
  workload::MuxRequest req;
  for (std::uint64_t u = 0; u < cfg.users; ++u) {
    SimTime done = 100 * (u + 1);
    while (mux.next_request(u, done, /*floor=*/0, req)) {
      EXPECT_NE(req.trace, obs::kNoTrace);
      EXPECT_TRUE(traces.insert(req.trace).second) << "trace ids never reuse";
      done += 50;
    }
  }
  const std::uint64_t total = cfg.users * cfg.requests_per_user;
  EXPECT_EQ(traces.size(), total);
  EXPECT_EQ(sink.recorded(), total) << "one root span per request";

  std::uint64_t hist_total = 0;
  for (const char* op : {"permit", "grow", "shrink"}) {
    if (const obs::Histogram* h =
            reg.histogram(std::string("req.latency.") + op)) {
      hist_total += h->count;
    }
  }
  EXPECT_EQ(hist_total, total) << "every request lands in one latency bucket";

  for (const obs::Span& s : sink.entries()) {
    EXPECT_EQ(s.kind, obs::SpanKind::kRequest);
    EXPECT_EQ(s.id, obs::kRootSpanId);
    EXPECT_EQ(s.parent, obs::kNoSpan);
    EXPECT_GE(s.end, s.begin);
    EXPECT_NE(s.label, nullptr);
  }
}

TEST(MuxSpans, LatencyHistogramIsOnWithoutASink) {
  // req.latency.* is always-on instrumentation: byte-identical whether or
  // not spans are being collected.
  workload::MuxConfig cfg;
  cfg.users = 3;
  cfg.trees = 2;
  cfg.requests_per_user = 2;
  auto run = [&](bool with_sink) {
    obs::Registry reg;
    obs::SpanSink sink(16);
    obs::ScopedMetrics metrics(reg);
    std::unique_ptr<obs::ScopedSpans> scope;
    if (with_sink) scope = std::make_unique<obs::ScopedSpans>(sink);
    workload::RequestMux mux(cfg, 5);
    (void)mux.initial_requests();
    workload::MuxRequest req;
    for (std::uint64_t u = 0; u < cfg.users; ++u) {
      while (mux.next_request(u, 40, 0, req)) {
      }
    }
    return reg.to_json().dump();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- forest: the end-to-end determinism contract ----------------------------

forest::ForestConfig span_config(unsigned shards) {
  forest::ForestConfig cfg;
  cfg.shards = shards;
  cfg.mux.users = 96;
  cfg.mux.trees = 12;
  cfg.mux.requests_per_user = 4;
  cfg.tree_size = 12;
  cfg.window = 64;
  cfg.service = forest::Service::kController;
  return cfg;
}

struct SpanRun {
  forest::ForestStats stats;
  std::string registry_json;
  std::string spans_json;
  std::string timeline_json;
  std::uint64_t root_spans = 0;
  std::uint64_t op_spans = 0;
};

SpanRun run_with_spans(unsigned shards, std::uint64_t seed) {
  SpanRun out;
  obs::Registry reg;
  obs::SpanSink sink(std::size_t{1} << 14);
  obs::FlightRecorder flight(
      {"forest.requests.total", "forest.ops.grow"}, /*period=*/256);
  obs::ScopedSpans span_scope(sink);
  obs::ScopedMetrics scope(reg);
  forest::ForestEngine engine(span_config(shards), seed);
  engine.set_flight_recorder(&flight);
  out.stats = engine.run();
  out.registry_json = reg.to_json().dump();
  out.spans_json = sink.to_json().dump();
  out.timeline_json = flight.to_json().dump();
  for (const obs::Span& s : sink.entries()) {
    out.root_spans += s.kind == obs::SpanKind::kRequest;
    out.op_spans += s.kind == obs::SpanKind::kOp;
  }
  return out;
}

TEST(ForestSpans, CausalRecordByteIdenticalAcrossShardCounts) {
  const SpanRun base = run_with_spans(1, 77);
  EXPECT_EQ(base.root_spans, base.stats.requests)
      << "one root span per request";
  EXPECT_EQ(base.op_spans, base.stats.requests - base.stats.other)
      << "one controller op span per request that reaches the controller";
  EXPECT_NE(base.timeline_json.find("\"rows\":[["), std::string::npos)
      << "flight recorder sampled at least one row";
  for (unsigned k : {2u, 4u}) {
    const SpanRun r = run_with_spans(k, 77);
    EXPECT_EQ(r.spans_json, base.spans_json) << "shards=" << k;
    EXPECT_EQ(r.timeline_json, base.timeline_json) << "shards=" << k;
    EXPECT_EQ(r.registry_json, base.registry_json) << "shards=" << k;
  }
}

TEST(ForestSpans, RegistryUnchangedBySpanCollection) {
  // Turning the whole span + flight-recorder stack on must not perturb the
  // run: the merged registry is byte-identical with and without it.
  obs::Registry plain;
  {
    obs::ScopedMetrics scope(plain);
    forest::ForestEngine engine(span_config(2), 77);
    (void)engine.run();
  }
  const SpanRun traced = run_with_spans(2, 77);
  EXPECT_EQ(plain.to_json().dump(), traced.registry_json);
}

TEST(ForestSpans, ParentedOpSpansResolveWithinTheirTrace) {
  std::set<std::pair<obs::TraceId, std::uint32_t>> ids;
  obs::Registry reg;
  obs::SpanSink sink(std::size_t{1} << 14);
  obs::ScopedSpans span_scope(sink);
  obs::ScopedMetrics scope(reg);
  forest::ForestEngine engine(span_config(4), 9);
  (void)engine.run();
  ASSERT_EQ(sink.overwritten(), 0u) << "sized for the full workload";
  for (const obs::Span& s : sink.entries()) {
    EXPECT_TRUE(ids.insert({s.trace, s.id}).second)
        << "(trace, id) pairs are globally unique";
  }
  for (const obs::Span& s : sink.entries()) {
    if (s.parent == obs::kNoSpan) continue;
    EXPECT_TRUE(ids.count({s.trace, s.parent}))
        << "child spans point at a recorded span of the same trace";
  }
}

}  // namespace
}  // namespace dyncon
