// Simulator-throughput suite: the repo's perf-regression instrument.
//
// Every EXP bench validates a *measured-scaling* claim, so the event loop
// and the transport underneath them are the instrument the reproduction
// stands on.  This binary pins that instrument's speed: it drives a
// canonical workload mix (centralized controller, distributed controller
// under open-loop churn, distributed controller over a chaos-faulted
// transport with the reliable channel engaged, and a raw send/deliver
// chain) and reports
//
//   perf.events_per_sec        event-loop throughput on the distributed mix
//   perf.sends_per_sec         network sends/sec on the same mix
//   perf.allocs_per_event      operator-new calls per fired event (whole mix,
//                              includes per-request controller state)
//   perf.sendloop.allocs_per_event
//                              allocations per event on the *pure*
//                              send/deliver chain — the steady-state hot
//                              path, expected 0 in Release builds
//   perf.ns_per_event_p50/p99  per-event latency percentiles (sampled over
//                              2048-event slices of the distributed phase)
//
// Run with --metrics-out=<path> to emit the run-report JSON; the committed
// baseline lives at BENCH_perf.json and tools/check_bench.py compares a
// fresh run against it (CI perf-smoke job).  Refresh instructions are in
// docs/PERFORMANCE.md.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"
#include "core/centralized_controller.hpp"
#include "core/distributed_controller.hpp"
#include "sim/channel.hpp"
#include "sim/fault.hpp"
#include "sim/watchdog.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/shapes.hpp"

// ---- operator-new counter ---------------------------------------------------
//
// Global replacement for this binary only: every heap allocation, from any
// layer, bumps one relaxed atomic.  The simulation is single-threaded; the
// atomic only guards against library-internal threads.

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dyncon;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- batching knob ----------------------------------------------------------
//
// --no-batch turns off both batching layers everywhere at once (same-edge
// delivery coalescing and inline grant waves).  Per-message accounting is
// bit-identical either way — that is the acceptance contract, which CI
// checks by diffing a batched report against a --no-batch one.

bool g_batching = true;

/// One churn-or-event proposal: 50/50 events and leaf-adds, subjects drawn
/// from the *initial* node set (grow-only churn keeps them alive forever).
/// Deliberately O(1) — workload::random_node's alive_nodes() scan is O(n)
/// and would dominate the measurement this binary exists to take.
core::RequestSpec propose(const std::vector<NodeId>& subjects, Rng& rng) {
  const NodeId v = subjects[rng.index(subjects.size())];
  return {rng.chance(0.5) ? core::RequestSpec::Type::kEvent
                          : core::RequestSpec::Type::kAddLeaf,
          v};
}

struct PhaseResult {
  std::uint64_t events = 0;
  std::uint64_t sends = 0;
  std::uint64_t allocs = 0;
  double secs = 0;

  [[nodiscard]] double events_per_sec() const {
    return secs > 0 ? static_cast<double>(events) / secs : 0.0;
  }
  [[nodiscard]] double sends_per_sec() const {
    return secs > 0 ? static_cast<double>(sends) / secs : 0.0;
  }
  [[nodiscard]] double allocs_per_event() const {
    return events > 0
               ? static_cast<double>(allocs) / static_cast<double>(events)
               : 0.0;
  }
};

void report_phase(bench::Run& run, const std::string& prefix,
                  const PhaseResult& r) {
  run.registry().set_gauge("perf." + prefix + ".events_per_sec",
                           r.events_per_sec());
  run.registry().set_gauge("perf." + prefix + ".sends_per_sec",
                           r.sends_per_sec());
  run.registry().set_gauge("perf." + prefix + ".allocs_per_event",
                           r.allocs_per_event());
  run.registry().set("perf." + prefix + ".events", r.events);
}

// ---- phase A: centralized controller (no event loop) ------------------------

PhaseResult phase_centralized(std::uint64_t n, std::uint64_t requests) {
  Rng rng(5);
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, n, rng);
  core::CentralizedController::Options opts;
  opts.track_domains = false;
  core::CentralizedController ctrl(
      t, core::Params(1u << 30, 1u << 29, 4 * n + requests), opts);
  const auto nodes = t.alive_nodes();
  PhaseResult r;
  const std::uint64_t a0 = allocs_now();
  const auto t0 = Clock::now();
  std::uint64_t granted = 0;
  for (std::uint64_t i = 0; i < requests; ++i) {
    granted +=
        ctrl.request_event(nodes[i % nodes.size()]).outcome ==
        core::Outcome::kGranted;
  }
  r.secs = seconds_since(t0);
  r.allocs = allocs_now() - a0;
  r.events = requests;  // synchronous: one "event" per answered request
  if (granted == 0) std::abort();  // budget sized so this cannot happen
  return r;
}

// ---- phase B: distributed controller, open-loop churn, timed slices ---------

PhaseResult phase_distributed(std::uint64_t n, std::uint64_t steps,
                              Percentiles& slice_ns) {
  Rng rng(7);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kFixed, 1));
  net.set_batching(g_batching);
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, n, rng);
  core::DistributedController::Options opts;
  opts.track_domains = false;
  opts.batch_grants = g_batching;
  // Budget sized to the run (M ~ steps, W = M/5): with an effectively
  // infinite M every node ends up holding a fat permit stock and grants
  // locally without a single message — the network would go quiet after
  // warmup.  A scarce budget keeps permits migrating (taxi hops) for the
  // whole run, which is the traffic this instrument is supposed to time.
  core::DistributedController ctrl(
      net, t,
      core::Params(steps, steps / 5, 4 * n + 4 * steps), opts);
  // Grow-only churn (leaf adds): removal churn is only supported
  // closed-loop (a remove racing an in-flight request is rejected at
  // submit, not mid-protocol), and this phase is deliberately open-loop
  // to saturate the event queue.
  const std::vector<NodeId> subjects = t.alive_nodes();
  std::uint64_t answered = 0;
  // Open-loop: every submission is scheduled up front at its arrival time
  // (geometric gaps, mean 2), so the hot loop below is *only* the event
  // loop.
  SimTime when = 0;
  Rng arrivals(13);
  Rng mix(17);
  struct Ctx {
    core::DistributedController& ctrl;
    const std::vector<NodeId>& subjects;
    Rng& mix;
    std::uint64_t& answered;
  } ctx{ctrl, subjects, mix, answered};
  for (std::uint64_t i = 0; i < steps; ++i) {
    when += 1 + arrivals.uniform(0, 2);
    queue.schedule_at(when, [&ctx] {
      ctx.ctrl.submit(propose(ctx.subjects, ctx.mix),
                      [&ctx](const core::Result&) { ++ctx.answered; });
    });
  }
  PhaseResult r;
  const std::uint64_t a0 = allocs_now();
  const std::uint64_t e0 = queue.events_fired();
  const auto t0 = Clock::now();
  // Timed 2048-event slices: per-event percentiles without a clock read
  // per event.
  constexpr std::uint64_t kSlice = 2048;
  while (!queue.empty()) {
    const auto s0 = Clock::now();
    const std::uint64_t fired = queue.run(kSlice);
    const double ns = std::chrono::duration<double, std::nano>(
                          Clock::now() - s0)
                          .count();
    if (fired == kSlice) {  // ignore the ragged final slice
      slice_ns.add(ns / static_cast<double>(fired));
    }
  }
  r.secs = seconds_since(t0);
  r.allocs = allocs_now() - a0;
  r.events = queue.events_fired() - e0;
  r.sends = net.stats().messages;
  if (answered != steps) std::abort();  // every request must be answered
  bench::Run::note_net(net.stats());
  return r;
}

// ---- phase C: chaos-faulted transport + reliable channel --------------------

PhaseResult phase_faulty(std::uint64_t n, std::uint64_t steps) {
  Rng rng(19);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, 23));
  net.set_batching(g_batching);
  net.set_fault_policy(sim::make_fault(sim::FaultKind::kChaos, 29));
  net.enable_reliability();
  sim::Watchdog wd(queue, 2'000'000);
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, n, rng);
  core::DistributedController::Options opts;
  opts.track_domains = false;
  opts.batch_grants = g_batching;
  opts.watchdog = &wd;
  // Unlike phase B this keeps the effectively-infinite budget: under a
  // scarce budget + chaos faults the controller cannot guarantee request
  // liveness (the watchdog rightly fires), and this phase's job is to time
  // the fault/ARQ machinery, not to stress permit scarcity.
  core::DistributedController ctrl(
      net, t, core::Params(1u << 30, 1u << 29, 4 * n + 4 * steps), opts);
  const std::vector<NodeId> subjects = t.alive_nodes();
  std::uint64_t answered = 0;
  SimTime when = 0;
  Rng arrivals(37);
  Rng mix(41);
  struct Ctx {
    core::DistributedController& ctrl;
    const std::vector<NodeId>& subjects;
    Rng& mix;
    std::uint64_t& answered;
  } ctx{ctrl, subjects, mix, answered};
  for (std::uint64_t i = 0; i < steps; ++i) {
    when += 1 + arrivals.uniform(0, 6);
    queue.schedule_at(when, [&ctx] {
      ctx.ctrl.submit(propose(ctx.subjects, ctx.mix),
                      [&ctx](const core::Result&) { ++ctx.answered; });
    });
  }
  PhaseResult r;
  const std::uint64_t a0 = allocs_now();
  const std::uint64_t e0 = queue.events_fired();
  const auto t0 = Clock::now();
  queue.run();
  r.secs = seconds_since(t0);
  r.allocs = allocs_now() - a0;
  r.events = queue.events_fired() - e0;
  r.sends = net.stats().messages;
  wd.verify_idle();
  if (answered != steps) std::abort();
  bench::Run::note_net(net.stats());
  return r;
}

// ---- phase D: raw send/deliver chain (the steady-state hot path) ------------

PhaseResult phase_sendloop(std::uint64_t sends) {
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kFixed, 1));
  net.set_batching(g_batching);
  const sim::Message msg =
      sim::Message::agent_hop(12345, 17, 9, 4, 3, true);
  std::uint64_t left = sends;
  struct Ctx {
    sim::Network& net;
    const sim::Message& msg;
    std::uint64_t& left;
    void fire() {
      if (--left == 0) return;
      net.send(0, 1, msg, [this] { fire(); });
    }
  } ctx{net, msg, left};
  // Warm up: let every arena (event heap, metrics slots) reach steady
  // state before counting.
  net.send(0, 1, msg, [&ctx] { ctx.fire(); });
  for (int i = 0; i < 64 && !queue.empty(); ++i) queue.step();
  PhaseResult r;
  const std::uint64_t a0 = allocs_now();
  const std::uint64_t e0 = queue.events_fired();
  const auto t0 = Clock::now();
  queue.run();
  r.secs = seconds_since(t0);
  r.allocs = allocs_now() - a0;
  r.events = queue.events_fired() - e0;
  r.sends = net.stats().messages;
  bench::Run::note_net(net.stats());
  return r;
}

// ---- phase E: parallel run-engine scaling -----------------------------------
//
// The same batch of independent seeded mini-runs (distributed controller,
// open-loop arrivals) executed through util::parallel_for_runs at growing
// worker counts.  Each run owns its queue/network/tree — shared-nothing —
// so events/sec should scale with workers up to the core count.  The
// per-run event totals are summed and compared across batches: a mismatch
// means scheduling leaked into the simulation and the binary aborts.  Each
// run records into its own registry, since the pool's caller runs some of
// the runs itself; the report carries one copy of their counters, the
// jobs=1 batch's, whatever the batch list.

PhaseResult phase_parallel(unsigned jobs, std::uint64_t runs,
                           std::uint64_t n, std::uint64_t steps) {
  std::vector<std::uint64_t> events(runs, 0);
  std::vector<std::uint64_t> sends(runs, 0);
  std::vector<obs::Registry> regs(runs);
  const auto t0 = Clock::now();
  util::parallel_for_runs(
      runs, jobs, /*base_seed=*/97,
      [&](std::uint64_t idx, Rng rng) {
        obs::ScopedMetrics scope(regs[idx]);
        sim::EventQueue queue;
        sim::Network net(queue,
                         sim::make_delay(sim::DelayKind::kFixed, 1));
        net.set_batching(g_batching);
        tree::DynamicTree t;
        workload::build(t, workload::Shape::kRandomAttach, n, rng);
        core::DistributedController::Options opts;
        opts.track_domains = false;
        opts.batch_grants = g_batching;
        core::DistributedController ctrl(
            net, t, core::Params(steps, steps / 5, 4 * n + 4 * steps),
            opts);
        const std::vector<NodeId> subjects = t.alive_nodes();
        std::uint64_t answered = 0;
        SimTime when = 0;
        struct Ctx {
          core::DistributedController& ctrl;
          const std::vector<NodeId>& subjects;
          Rng& mix;
          std::uint64_t& answered;
        } ctx{ctrl, subjects, rng, answered};
        for (std::uint64_t i = 0; i < steps; ++i) {
          when += 1 + rng.uniform(0, 2);
          queue.schedule_at(when, [&ctx] {
            ctx.ctrl.submit(propose(ctx.subjects, ctx.mix),
                            [&ctx](const core::Result&) {
                              ++ctx.answered;
                            });
          });
        }
        queue.run();
        if (answered != steps) std::abort();
        events[idx] = queue.events_fired();
        sends[idx] = net.stats().messages;
        bench::Run::note_net(net.stats());
      });
  PhaseResult r;
  r.secs = seconds_since(t0);
  for (std::uint64_t i = 0; i < runs; ++i) {
    r.events += events[i];
    r.sends += sends[i];
  }
  if (obs::Registry* main = obs::metrics(); main != nullptr && jobs == 1) {
    for (const obs::Registry& reg : regs) main->merge(reg);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run("perf_suite", argc, argv);
  bench::banner("perf_suite — simulator throughput + allocation trajectory");

  // CI smoke: ~8x shorter.
  const std::uint64_t scale =
      util::flag_present(argc, argv, "--quick") ? 8 : 1;
  run.param("scale_divisor", scale);

  // Batching knob (docs/EXPERIMENTS.md).  The workload counters below must
  // be byte-identical either way — CI diffs a batched report against a
  // --no-batch one to prove it.
  g_batching = !util::flag_present(argc, argv, "--no-batch");
  run.param("batching", std::uint64_t{g_batching ? 1u : 0u});

  const PhaseResult cen = phase_centralized(4096, 2'000'000 / scale);
  Percentiles slice_ns;
  const PhaseResult dist = phase_distributed(1024, 200'000 / scale, slice_ns);
  const PhaseResult faulty = phase_faulty(192, 20'000 / scale);
  const PhaseResult loop = phase_sendloop(2'000'000 / scale);

  bench::Table table({"phase", "events", "sends", "events/s", "sends/s",
                      "allocs/event", "secs"});
  auto row = [&table](const char* name, const PhaseResult& r) {
    table.row({name, bench::num(r.events), bench::num(r.sends),
               bench::fp(r.events_per_sec(), 0), bench::fp(r.sends_per_sec(), 0),
               bench::fp(r.allocs_per_event(), 4), bench::fp(r.secs, 3)});
  };
  row("centralized", cen);
  row("distributed", dist);
  row("faulty+channel", faulty);
  row("sendloop", loop);
  table.print();

  // Phase E: the same 8-run batch through the pool at growing worker
  // counts.  Totals must match across batches (determinism check); on a
  // single hardware thread the speedup column simply reads ~1.0.
  const std::uint64_t pruns = 8;
  const unsigned hw = dyncon::util::ThreadPool::hardware_jobs();
  std::vector<PhaseResult> batches;
  bench::Table ptable({"jobs", "events", "events/s", "speedup vs j1",
                       "secs"});
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    const PhaseResult pr =
        phase_parallel(jobs, pruns, 256, 12'500 / scale);
    if (!batches.empty() &&
        (pr.events != batches.front().events ||
         pr.sends != batches.front().sends)) {
      std::fprintf(stderr,
                   "parallel batch at jobs=%u diverged from jobs=1 "
                   "(events %llu vs %llu)\n",
                   jobs, static_cast<unsigned long long>(pr.events),
                   static_cast<unsigned long long>(
                       batches.front().events));
      std::abort();
    }
    ptable.row({bench::num(jobs), bench::num(pr.events),
                bench::fp(pr.events_per_sec(), 0),
                bench::fp(batches.empty()
                              ? 1.0
                              : pr.events_per_sec() /
                                    batches.front().events_per_sec(),
                          2),
                bench::fp(pr.secs, 3)});
    batches.push_back(pr);
  }
  std::printf("\n  parallel run-engine scaling (%llu runs/batch, %u "
              "hardware threads):\n",
              static_cast<unsigned long long>(pruns), hw);
  ptable.print();

  const double p50 = slice_ns.at(0.50);
  const double p99 = slice_ns.at(0.99);
  std::printf("\n  distributed ns/event: p50=%.1f p99=%.1f (%zu slices)\n",
              p50, p99, slice_ns.count());
  std::printf("  sendloop allocations/event: %.6f (%s)\n",
              loop.allocs_per_event(),
#ifdef NDEBUG
              "release: steady-state send/deliver path"
#else
              "debug build: encode+roundtrip allocates by design"
#endif
  );

  report_phase(run, "centralized", cen);
  report_phase(run, "distributed", dist);
  report_phase(run, "faulty", faulty);
  report_phase(run, "sendloop", loop);
  // Headline gauges (the ones tools/check_bench.py gates on).
  run.registry().set_gauge("perf.events_per_sec", dist.events_per_sec());
  run.registry().set_gauge("perf.sends_per_sec", dist.sends_per_sec());
  run.registry().set_gauge("perf.allocs_per_event", dist.allocs_per_event());
  run.registry().set_gauge("perf.ns_per_event_p50", p50);
  run.registry().set_gauge("perf.ns_per_event_p99", p99);
  run.registry().set("perf.events",
                     cen.events + dist.events + faulty.events + loop.events);
  run.registry().set("perf.sends", dist.sends + faulty.sends + loop.sends);
  // Parallel-scaling family (perf.parallel.*): throughput gauges are
  // machine-dependent and excluded from the cross-machine baseline diff;
  // check_bench.py instead gates on the within-report speedups, and the
  // event counters stay exact-match because batches are deterministic.
  for (std::size_t b = 0; b < batches.size(); ++b) {
    run.registry().set_gauge(
        "perf.parallel.events_per_sec_j" + std::to_string(1u << b),
        batches[b].events_per_sec());
  }
  run.registry().set_gauge("perf.parallel.speedup_j4",
                           batches[2].events_per_sec() /
                               batches[0].events_per_sec());
  run.registry().set_gauge("perf.parallel.hw_threads",
                           static_cast<double>(hw));
  run.registry().set("perf.parallel.events", batches.front().events);
  run.registry().set("perf.parallel.runs",
                     pruns * static_cast<std::uint64_t>(batches.size()));
  return 0;
}
