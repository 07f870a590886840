// Tests for the observability layer: json, metrics registry, typed event
// trace, run report, and the NetStats adapter.

#include <gtest/gtest.h>

#include <sstream>

#include "obs/events.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/net_adapter.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "sim/network.hpp"

namespace dyncon::obs {
namespace {

// ---- json -------------------------------------------------------------------

TEST(Json, DumpParseRoundTrip) {
  json::Value v = json::Value::object();
  v["u"] = std::uint64_t{18446744073709551615ULL};  // needs the exact arm
  v["d"] = 2.5;
  v["s"] = "a \"quoted\" \n line";
  v["b"] = true;
  v["n"] = nullptr;
  json::Array arr;
  arr.emplace_back(std::uint64_t{1});
  arr.emplace_back("two");
  v["arr"] = json::Value(std::move(arr));

  std::ostringstream os;
  v.dump(os);
  json::Value back;
  std::string err;
  ASSERT_TRUE(json::Value::parse(os.str(), back, &err)) << err;
  ASSERT_TRUE(back.is_object());
  EXPECT_EQ(back.find("u")->as_uint(), 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(back.find("d")->as_double(), 2.5);
  EXPECT_EQ(back.find("s")->as_string(), "a \"quoted\" \n line");
  EXPECT_EQ(back.find("arr")->as_array().size(), 2u);
}

TEST(Json, ParseRejectsGarbage) {
  json::Value out;
  std::string err;
  EXPECT_FALSE(json::Value::parse("{", out, &err));
  EXPECT_FALSE(json::Value::parse("[1,]", out, &err));
  EXPECT_FALSE(json::Value::parse("{\"a\":1} trailing", out, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Json, StringEscapeRoundTrip) {
  // Control characters dump as \u00XX and parse back to the same bytes.
  json::Value v = json::Value::object();
  v["s"] = std::string("tab\t bell\x07 nul-free \x1f end");
  std::ostringstream os;
  v.dump(os);
  EXPECT_NE(os.str().find("\\u0007"), std::string::npos);
  json::Value back;
  std::string err;
  ASSERT_TRUE(json::Value::parse(os.str(), back, &err)) << err;
  EXPECT_EQ(back.find("s")->as_string(), v.find("s")->as_string());

  // \u escapes outside the control range decode to UTF-8.
  json::Value uni;
  ASSERT_TRUE(json::Value::parse("\"\\u0041\\u00e9\\u20ac\"", uni, &err))
      << err;
  EXPECT_EQ(uni.as_string(), "A\xc3\xa9\xe2\x82\xac");  // A, é, €

  // Malformed escapes are rejected, not mangled.
  json::Value bad;
  EXPECT_FALSE(json::Value::parse("\"\\u12\"", bad, &err));
  EXPECT_FALSE(json::Value::parse("\"\\u12zz\"", bad, &err));
  EXPECT_FALSE(json::Value::parse("\"\\q\"", bad, &err));
  EXPECT_FALSE(json::Value::parse("\"dangling\\", bad, &err));
}

TEST(Json, DeepNestingLimit) {
  auto nested = [](int depth) {
    std::string s(static_cast<std::size_t>(depth), '[');
    s += "1";
    s.append(static_cast<std::size_t>(depth), ']');
    return s;
  };
  json::Value out;
  std::string err;
  EXPECT_TRUE(json::Value::parse(nested(60), out, &err)) << err;
  EXPECT_FALSE(json::Value::parse(nested(80), out, &err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

TEST(Json, TruncatedInputs) {
  json::Value out;
  std::string err;
  // Every prefix of a valid document must fail cleanly, never crash or
  // accept.  (The empty prefix included.)
  const std::string doc = R"({"a": [1, 2.5, "x\n"], "b": {"c": true}})";
  for (std::size_t n = 0; n < doc.size(); ++n) {
    EXPECT_FALSE(json::Value::parse(doc.substr(0, n), out, &err))
        << "prefix length " << n << " unexpectedly parsed";
  }
  EXPECT_TRUE(json::Value::parse(doc, out, &err)) << err;
}

// ---- registry ---------------------------------------------------------------

TEST(Registry, CounterGaugeHistogramSemantics) {
  Registry reg;
  reg.add("permits.granted");
  reg.add("permits.granted", 4);
  EXPECT_EQ(reg.counter("permits.granted"), 5u);
  EXPECT_EQ(reg.counter("never.touched"), 0u);

  reg.set("net.messages", 100);
  reg.set("net.messages", 42);  // overwrite, not accumulate
  EXPECT_EQ(reg.counter("net.messages"), 42u);

  reg.set_gauge("wall.build", 1.5);
  reg.add_gauge("wall.build", 0.5);
  EXPECT_DOUBLE_EQ(reg.gauge("wall.build"), 2.0);

  reg.observe("net.message_bits", 0);
  reg.observe("net.message_bits", 1);
  reg.observe("net.message_bits", 7, /*weight=*/3);
  const Histogram* h = reg.histogram("net.message_bits");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 5u);
  EXPECT_EQ(h->sum, 22u);
  EXPECT_EQ(h->min, 0u);
  EXPECT_EQ(h->max, 7u);
  EXPECT_EQ(h->buckets[0], 1u);  // the zero
  EXPECT_EQ(h->buckets[1], 1u);  // 1 in [1,2)
  EXPECT_EQ(h->buckets[3], 3u);  // 7 in [4,8), weighted
  EXPECT_DOUBLE_EQ(h->mean(), 22.0 / 5.0);

  reg.clear();
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.gauges().empty());
  EXPECT_TRUE(reg.histograms().empty());
}

TEST(Registry, HistogramPercentile) {
  Registry reg;
  const Histogram* empty = reg.histogram("nope");
  EXPECT_EQ(empty, nullptr);

  reg.observe("lat", 0);                  // bucket 0
  reg.observe("lat", 3, /*weight=*/98);   // bucket 2, [2,4)
  reg.observe("lat", 100);                // bucket 7, [64,128)
  const Histogram* h = reg.histogram("lat");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->count, 100u);
  EXPECT_EQ(h->percentile(0.0), 0u);    // first value is the zero
  EXPECT_EQ(h->percentile(0.50), 3u);   // bucket upper edge (1<<2)-1
  EXPECT_EQ(h->percentile(0.99), 3u);
  EXPECT_EQ(h->percentile(1.0), 100u);  // clamped to observed max
  EXPECT_EQ(h->percentile(7.0), 100u);  // q clamps to [0,1]

  Histogram none;
  EXPECT_EQ(none.percentile(0.5), 0u);  // empty histogram: 0, not UB
}

TEST(Registry, FreeFunctionsNoOpWhenUninstalled) {
  ASSERT_EQ(metrics(), nullptr) << "a registry leaked from another test";
  count("permits.granted");          // must not crash
  gauge("wall.x", 1.0);
  observe("net.message_bits", 8);
  EXPECT_EQ(metrics(), nullptr);
}

TEST(Registry, ScopedInstallRestoresPrevious) {
  Registry outer;
  {
    ScopedMetrics a(outer);
    count("x");
    Registry inner;
    {
      ScopedMetrics b(inner);
      count("x", 10);
    }
    count("x");  // back to outer
  }
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(outer.counter("x"), 2u);
}

TEST(Registry, ScopeTimerAccumulates) {
  Registry reg;
  ScopedMetrics scope(reg);
  { ScopeTimer t("phase"); }
  { ScopeTimer t("phase"); }
  EXPECT_EQ(reg.counter("wall.phase.calls"), 2u);
  EXPECT_GE(reg.gauge("wall.phase"), 0.0);
}

// ---- typed events -----------------------------------------------------------

TEST(EventTrace, RingWrapsKeepingNewest) {
  EventTrace trace(4);
  trace.enable(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    trace.record(TraceEvent{EventKind::kAgentHop, i, 1, i, 0});
  }
  EXPECT_EQ(trace.recorded(), 10u);
  EXPECT_EQ(trace.size(), 4u);
  const auto events = trace.tail_events(100);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().a, 6u);  // oldest surviving
  EXPECT_EQ(events.back().a, 9u);   // newest
}

TEST(EventTrace, OverwrittenCountsRingEvictions) {
  EventTrace trace(4);
  trace.enable(true);
  for (std::uint64_t i = 0; i < 3; ++i) {
    trace.record(TraceEvent{EventKind::kAgentHop, i, 1, i, 0});
  }
  EXPECT_EQ(trace.overwritten(), 0u);  // under capacity: nothing lost
  for (std::uint64_t i = 3; i < 10; ++i) {
    trace.record(TraceEvent{EventKind::kAgentHop, i, 1, i, 0});
  }
  EXPECT_EQ(trace.recorded(), 10u);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.overwritten(), 6u);  // recorded - size
  trace.clear();
  EXPECT_EQ(trace.overwritten(), 0u);
}

TEST(EventTrace, DisabledRecordsNothing) {
  EventTrace trace(8);
  trace.record(TraceEvent{EventKind::kWaveStart, 0, 0, 0, 0});
  EXPECT_EQ(trace.recorded(), 0u);
  EXPECT_EQ(trace.size(), 0u);
}

TEST(EventTrace, EmitIsNoOpWithoutInstallAndWorksWithin) {
  ASSERT_EQ(trace(), nullptr);
  emit(TraceEvent{EventKind::kPermitGranted, 1, 2, 3, 4});  // no sink: no-op

  EventTrace ring(16);
  ring.enable(true);
  {
    ScopedTrace scope(ring);
    emit(TraceEvent{EventKind::kPermitGranted, 1, 2, 3, 4});
  }
  EXPECT_EQ(trace(), nullptr);
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.tail_events(1)[0].kind, EventKind::kPermitGranted);
}

TEST(EventTrace, FormatAndJsonl) {
  EventTrace trace(8);
  trace.enable(true);
  trace.record(TraceEvent{EventKind::kWaveEnd, 3, kNoNode, 0, 0});
  trace.record(TraceEvent{EventKind::kPermitGranted, 4, 7, 9, 1});
  const auto lines = trace.tail(8);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "[t=3] WaveEnd a=0 b=0");  // no node: field omitted
  EXPECT_NE(lines[1].find("PermitGranted"), std::string::npos);
  EXPECT_NE(lines[1].find("node=7"), std::string::npos);

  std::ostringstream os;
  trace.dump_jsonl(os, 8);
  std::istringstream in(os.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::Value::parse(line, v, &err)) << line << ": " << err;
    ASSERT_TRUE(v.is_object());
    EXPECT_NE(v.find("kind"), nullptr);
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

// ---- flight recorder --------------------------------------------------------

TEST(FlightRecorder, SamplesOnScheduleAndBoundsRing) {
  Registry a, b;
  a.add("reqs", 3);
  a.set_gauge("load", 0.5);
  b.add("reqs", 4);
  b.set_gauge("load", 0.25);

  FlightRecorder fr({"reqs", "load", "missing"}, /*period=*/10,
                    /*capacity=*/2);
  EXPECT_TRUE(fr.due(0));  // first sample is at t=0
  fr.begin_row(0);
  fr.accumulate(a);
  fr.accumulate(b);
  fr.commit_row();
  EXPECT_FALSE(fr.due(9));
  EXPECT_TRUE(fr.due(10));

  ASSERT_EQ(fr.rows().size(), 1u);
  const auto& row = fr.rows().front();
  EXPECT_EQ(row.t, 0u);
  ASSERT_EQ(row.cells.size(), 3u);
  EXPECT_DOUBLE_EQ(row.cells[0], 7.0);   // counter, summed across shards
  EXPECT_DOUBLE_EQ(row.cells[1], 0.75);  // gauge fallback
  EXPECT_DOUBLE_EQ(row.cells[2], 0.0);   // unknown name reads as zero

  // Idle catch-up: a row at t=35 schedules the next sample at 40, not 20.
  fr.begin_row(35);
  fr.accumulate(a);
  fr.commit_row();
  EXPECT_FALSE(fr.due(39));
  EXPECT_TRUE(fr.due(40));

  // Capacity bound evicts oldest rows and counts them.
  fr.begin_row(40);
  fr.commit_row();
  EXPECT_EQ(fr.taken(), 3u);
  EXPECT_EQ(fr.rows().size(), 2u);
  EXPECT_EQ(fr.overwritten(), 1u);
  EXPECT_EQ(fr.rows().front().t, 35u);

  const json::Value doc = fr.to_json();
  EXPECT_EQ(doc.find("period")->as_uint(), 10u);
  EXPECT_EQ(doc.find("taken")->as_uint(), 3u);
  EXPECT_EQ(doc.find("overwritten")->as_uint(), 1u);
  EXPECT_EQ(doc.find("counters")->as_array().size(), 3u);
  const auto& rows = doc.find("rows")->as_array();
  ASSERT_EQ(rows.size(), 2u);
  // Row layout: [t, v0, v1, ...] — one more cell than counter names.
  ASSERT_EQ(rows[0].as_array().size(), 4u);
  EXPECT_EQ(rows[0].as_array()[0].as_uint(), 35u);
}

// ---- run report -------------------------------------------------------------

TEST(RunReport, JsonShapeAndRoundTrip) {
  Registry reg;
  reg.add("permits.granted", 12);
  reg.set_gauge("wall.run", 0.25);
  reg.observe("net.message_bits", 33);

  RunReport report("unit");
  report.set_param("n", json::Value(std::uint64_t{1024}));
  report.set_param("shape", json::Value("path"));
  report.set_wall_time(1.5);

  std::ostringstream os;
  report.write_json(os, &reg);
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::Value::parse(os.str(), v, &err)) << err;

  // Fixed schema: every key present even when empty.
  for (const char* key :
       {"name", "params", "metrics", "histograms", "net_stats",
        "wall_time_sec"}) {
    EXPECT_NE(v.find(key), nullptr) << key;
  }
  EXPECT_EQ(v.find("name")->as_string(), "unit");
  EXPECT_EQ(v.find("params")->find("n")->as_uint(), 1024u);
  const json::Value* counters = v.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("permits.granted")->as_uint(), 12u);
  EXPECT_NE(v.find("histograms")->find("net.message_bits"), nullptr);
  EXPECT_DOUBLE_EQ(v.find("wall_time_sec")->as_double(), 1.5);

  // Null registry: metrics sections exist but are empty.
  std::ostringstream bare;
  report.write_json(bare, nullptr);
  json::Value v2;
  ASSERT_TRUE(json::Value::parse(bare.str(), v2, &err)) << err;
  EXPECT_TRUE(v2.find("metrics")->find("counters")->as_object().empty());
}

TEST(RunReport, SpansAndTimelineSectionsRoundTrip) {
  RunReport report("unit");
  std::ostringstream bare;
  report.write_json(bare, nullptr);
  json::Value v0;
  std::string err;
  ASSERT_TRUE(json::Value::parse(bare.str(), v0, &err)) << err;
  // Fixed schema: the sections exist (empty objects) even when never set.
  ASSERT_NE(v0.find("spans"), nullptr);
  ASSERT_NE(v0.find("timeline"), nullptr);
  EXPECT_TRUE(v0.find("spans")->as_object().empty());
  EXPECT_TRUE(v0.find("timeline")->as_object().empty());

  // Populate from the real producers and round-trip through text.
  SpanSink sink(8);
  Span s;
  s.trace = 7;
  s.id = sink.open(7);
  s.kind = SpanKind::kRequest;
  s.begin = 10;
  s.end = 25;
  s.label = "permit";
  sink.emit(s);
  FlightRecorder fr({"reqs"}, 4);
  fr.begin_row(0);
  fr.commit_row();
  report.set_spans(sink.to_json());
  report.set_timeline(fr.to_json());

  std::ostringstream os;
  report.write_json(os, nullptr);
  json::Value v;
  ASSERT_TRUE(json::Value::parse(os.str(), v, &err)) << err;
  const json::Value* spans = v.find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->find("recorded")->as_uint(), 1u);
  const auto& events = spans->find("events")->as_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].find("trace")->as_uint(), 7u);
  EXPECT_EQ(events[0].find("kind")->as_string(), "request");
  EXPECT_EQ(events[0].find("label")->as_string(), "permit");
  EXPECT_EQ(events[0].find("begin")->as_uint(), 10u);
  EXPECT_EQ(events[0].find("end")->as_uint(), 25u);
  const json::Value* timeline = v.find("timeline");
  ASSERT_NE(timeline, nullptr);
  EXPECT_EQ(timeline->find("period")->as_uint(), 4u);
  EXPECT_EQ(timeline->find("rows")->as_array().size(), 1u);
}

// ---- net adapter ------------------------------------------------------------

TEST(NetAdapter, PublishUsesOverwriteSemantics) {
  sim::NetStats st;
  st.messages = 10;
  st.total_bits = 420;
  st.max_message_bits = 42;
  st.by_kind[0] = 10;
  st.bits_by_kind[0] = 420;
  st.max_bits_by_kind[0] = 42;

  Registry reg;
  publish_net_stats(reg, st);
  publish_net_stats(reg, st);  // cumulative source: must not double-count
  EXPECT_EQ(reg.counter("net.messages"), 10u);
  EXPECT_EQ(reg.counter("net.total_bits"), 420u);

  const json::Value v = net_stats_json(st);
  EXPECT_EQ(v.find("messages")->as_uint(), 10u);
  const json::Value* agent = v.find("per_kind")->find(
      sim::msg_kind_name(static_cast<sim::MsgKind>(0)));
  ASSERT_NE(agent, nullptr);
  EXPECT_EQ(agent->find("count")->as_uint(), 10u);
}

TEST(NetAdapter, NetStatsMergeSums) {
  sim::NetStats a, b;
  a.messages = 3;
  a.total_bits = 30;
  a.max_message_bits = 12;
  a.size_histogram[4] = 3;
  b.messages = 5;
  b.total_bits = 70;
  b.max_message_bits = 20;
  b.size_histogram[5] = 5;
  a.merge(b);
  EXPECT_EQ(a.messages, 8u);
  EXPECT_EQ(a.total_bits, 100u);
  EXPECT_EQ(a.max_message_bits, 20u);  // max, not sum
  EXPECT_EQ(a.size_histogram[4], 3u);
  EXPECT_EQ(a.size_histogram[5], 5u);
}

}  // namespace
}  // namespace dyncon::obs
