// EXP19 — forest runtime scaling: aggregate requests/sec vs shard count,
// plus the memory model that lets one engine host a million trees, plus
// the parallel run engine's scaling.
//
// One ForestEngine run serves a fixed closed-loop workload (a large Zipf-
// skewed user population multiplexed over many controller-managed trees);
// the sweep re-runs it at increasing --shards and reports aggregate
// throughput.  Five claims are checked:
//
//   determinism   the registry JSON (every counter + histogram) and the
//                 engine's shard-invariant stats are byte-identical at
//                 shards=1 and shards=N — sharding may only change
//                 wall-clock time.  Mismatch aborts the binary.  The same
//                 gate re-runs at a deliberately tiny --resident-trees
//                 budget: hibernation may only change wall-clock time too.
//   scaling       requests/sec grows with shards, reported as
//                 perf.forest.speedup.sN.  The 2x-at-4-shards bar is
//                 gated in one place, CI's tools/check_report.py bound
//                 'perf.forest.speedup.s4>=2.0'; the binary reports any
//                 speedup and always runs every later phase, so a slow
//                 run's report stays complete.  Where the time went is
//                 published beside it: perf.forest.serial_share.sN (engine
//                 time outside the shard fork, over all window time — the
//                 Amdahl serial fraction) and perf.forest.shard_idle_share.sN
//                 (forked time shards spent waiting on the slowest one).
//   allocation    the steady-state shard loop allocates ~0 per event: the
//                 echo-service phase (engine machinery only, shards=1 so
//                 the loop runs inline with no pool, --eager so one-time
//                 materialization stays out of the measured loop)
//                 re-measures PR 4's zero-allocation property.
//   memory        lazy materialization + arena slots + hibernation shrink
//                 the per-tree footprint: the memory phase prices an eager
//                 build against the lazy engine at the same scale and
//                 publishes perf.forest.bytes_per_tree / mem_reduction /
//                 startup_ratio plus the perf.mem.* gauges (RSS, arena,
//                 images, index).  CI bounds these with check_report.py
//                 terms in the scale cell ('perf.forest.mem_reduction>=10'
//                 and friends).
//   run engine    the same batch of 8 independent distributed-controller
//                 runs through util::parallel_for_runs at jobs = 1/2/4/8
//                 must fire the same events and sends at every jobs value
//                 (divergence aborts the binary); events/sec per jobs value
//                 is published as perf.parallel.events_per_sec_jN and
//                 perf.parallel.speedup_j4.
//
// perf.forest.*, perf.mem.* and perf.parallel.* gauges are machine-local
// (wall-clock and allocator derived): check_report.py checks their
// internal consistency, and CI bounds a few of them within one report.
//
//   --shards=N          cap the sweep's largest shard count (default 8)
//   --trees=N           forest size (default 64; the million-tree recipe in
//                       EXPERIMENTS.md runs 10^5..10^6)
//   --users=N           closed-loop population (default 8192)
//   --resident-trees=N  per-shard resident budget for the sweep + memory
//                       phase (default 0 = unlimited)
//   --jobs              accepted for uniformity; the forest pins workers =
//                       shards, and the run-engine phase sweeps jobs itself

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/distributed_controller.hpp"
#include "forest/forest.hpp"
#include "obs/meminfo.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/shapes.hpp"

// ---- operator-new counter ---------------------------------------------------

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

constexpr std::uint64_t kSeed = 0x19f07e57ULL;  // exp19 forest

struct Knobs {
  std::uint64_t trees = 64;
  std::uint64_t users = 8192;
  std::uint64_t resident = 0;  // per-shard; 0 = unlimited
};

forest::ForestConfig scaling_config(unsigned shards, const Knobs& knobs) {
  forest::ForestConfig cfg;
  cfg.shards = shards;
  cfg.mux.users = knobs.users;
  cfg.mux.trees = knobs.trees;
  cfg.mux.requests_per_user = 16;
  // Moderate skew: hot tenants exist, but the modulo placement still
  // spreads the top trees across shards (tree t lives on shard t % K).
  cfg.mux.zipf_s = 0.9;
  cfg.tree_size = 48;
  cfg.window = 256;
  cfg.service = forest::Service::kController;
  cfg.resident_trees = knobs.resident;
  return cfg;
}

struct SweepPoint {
  unsigned shards = 1;
  double secs = 0;
  forest::ForestStats stats;
  forest::ForestMemStats mem;
  std::string registry_json;  // full counter/histogram dump for the diff
};

SweepPoint run_forest(const forest::ForestConfig& cfg) {
  SweepPoint pt;
  pt.shards = cfg.shards;
  // Shard registries merge into THIS registry; it is compared, then merged
  // into the bench Run's registry so the report carries the counters.
  obs::Registry reg;
  forest::ForestEngine engine(cfg, kSeed);
  const auto t0 = Clock::now();
  {
    obs::ScopedMetrics scope(reg);
    pt.stats = engine.run();
  }
  pt.secs = std::chrono::duration<double>(Clock::now() - t0).count();
  pt.mem = engine.mem_stats();
  pt.registry_json = reg.to_json().dump();
  if (obs::Registry* main = obs::metrics()) main->merge(reg);
  return pt;
}

bool stats_match(const forest::ForestStats& a, const forest::ForestStats& b) {
  // Only the knob-invariant fields; cross_shard/barriers/tree_builds/
  // hibernations legitimately differ with K and the residency budget.
  return a.requests == b.requests && a.granted == b.granted &&
         a.rejected == b.rejected && a.other == b.other &&
         a.events == b.events && a.windows == b.windows &&
         a.handoffs == b.handoffs;
}

// ---- run-engine scaling -----------------------------------------------------
//
// The same batch of independent seeded mini-runs (distributed controller,
// open-loop arrivals) executed through util::parallel_for_runs at growing
// worker counts.  Each run owns its queue/network/tree — shared-nothing —
// so events/sec should scale with workers up to the core count.  The
// per-run event totals are summed and compared across batches: a mismatch
// means scheduling leaked into the simulation.  Each run records into a
// registry of its own that is then dropped (the pool's caller runs some
// of the runs itself), so the report gains only the perf.parallel.*
// family.

/// One churn-or-event proposal: 50/50 events and leaf-adds, subjects drawn
/// from the *initial* node set (grow-only churn keeps them alive forever).
/// Deliberately O(1) — workload::random_node's alive_nodes() scan is O(n)
/// and would dominate the measurement.
core::RequestSpec propose(const std::vector<NodeId>& subjects, Rng& rng) {
  const NodeId v = subjects[rng.index(subjects.size())];
  return {rng.chance(0.5) ? core::RequestSpec::Type::kEvent
                          : core::RequestSpec::Type::kAddLeaf,
          v};
}

struct Batch {
  std::uint64_t events = 0;
  std::uint64_t sends = 0;
  double secs = 0;

  [[nodiscard]] double events_per_sec() const {
    return secs > 0 ? static_cast<double>(events) / secs : 0.0;
  }
};

Batch run_batch(unsigned jobs, std::uint64_t runs, std::uint64_t n,
                std::uint64_t steps) {
  std::vector<std::uint64_t> events(runs, 0);
  std::vector<std::uint64_t> sends(runs, 0);
  const auto t0 = Clock::now();
  util::parallel_for_runs(
      runs, jobs, /*base_seed=*/97,
      [&](std::uint64_t idx, Rng rng) {
        obs::Registry reg;
        obs::ScopedMetrics scope(reg);
        sim::EventQueue queue;
        sim::Network net(queue,
                         sim::make_delay(sim::DelayKind::kFixed, 1));
        tree::DynamicTree t;
        workload::build(t, workload::Shape::kRandomAttach, n, rng);
        core::DistributedController::Options opts;
        opts.track_domains = false;
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
      });
  Batch b;
  b.secs = std::chrono::duration<double>(Clock::now() - t0).count();
  for (std::uint64_t i = 0; i < runs; ++i) {
    b.events += events[i];
    b.sends += sends[i];
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run("exp19_forest_scaling", argc, argv);
  bench::banner(
      "EXP19 — sharded forest runtime: requests/sec vs shard count");

  const unsigned hw = util::ThreadPool::hardware_jobs();
  const unsigned max_shards =
      util::flag_count(argc, argv, "--shards", 8, /*max_value=*/64);
  Knobs knobs;
  knobs.trees = util::flag_u64(argc, argv, "--trees", 64);
  knobs.users = util::flag_u64(argc, argv, "--users", 8192);
  knobs.resident = util::flag_u64(argc, argv, "--resident-trees", 0);
  run.param("hw_threads", static_cast<std::uint64_t>(hw));
  run.param("max_shards", static_cast<std::uint64_t>(max_shards));
  run.registry().set_gauge("perf.forest.hw_threads",
                           static_cast<double>(hw));

  const forest::ForestConfig base = scaling_config(1, knobs);
  run.param("users", base.mux.users);
  run.param("trees", base.mux.trees);
  run.param("resident_trees", base.resident_trees);
  run.param("requests_per_user", base.mux.requests_per_user);
  run.param("tree_size", base.tree_size);
  run.param("window", base.window);
  run.param("zipf_s", base.mux.zipf_s);

  std::vector<unsigned> shard_counts;
  for (unsigned k = 1; k <= max_shards; k *= 2) shard_counts.push_back(k);

  bench::subhead("scaling sweep (identical workload, shards doubled)");
  std::vector<SweepPoint> points;
  points.reserve(shard_counts.size());
  for (unsigned k : shard_counts) {
    points.push_back(run_forest(scaling_config(k, knobs)));
  }

  // Determinism gate: every point must agree with the 1-shard run on the
  // merged registry (all counters + histograms) and the invariant stats.
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].registry_json != points[0].registry_json ||
        !stats_match(points[i].stats, points[0].stats)) {
      std::fprintf(stderr,
                   "FATAL: shards=%u diverged from shards=1 — the forest "
                   "runtime must be byte-identical at any shard count\n",
                   points[i].shards);
      return 1;
    }
  }

  // Same gate across residency budgets: a starved budget (2 resident trees
  // per shard, so nearly every touch is a wake) must reproduce the
  // unlimited run byte for byte.  Lossless hibernation, or the binary dies.
  {
    forest::ForestConfig cfg = scaling_config(shard_counts.back(), knobs);
    cfg.resident_trees = 2;
    const SweepPoint starved = run_forest(cfg);
    if (starved.registry_json != points[0].registry_json ||
        !stats_match(starved.stats, points[0].stats)) {
      std::fprintf(stderr,
                   "FATAL: --resident-trees=2 diverged — hibernation must "
                   "be byte-identical at any residency budget\n");
      return 1;
    }
    std::printf(
        "  residency identity: budget=2 matches unlimited "
        "(hibernations=%llu wakes=%llu)  [ok]\n",
        static_cast<unsigned long long>(starved.stats.hibernations),
        static_cast<unsigned long long>(starved.stats.wakes));
  }

  bench::Table table({"shards", "requests", "granted", "windows", "events",
                      "cross_shard", "builds", "reqs/sec", "speedup",
                      "serial", "idle"});
  const double base_rate =
      static_cast<double>(points[0].stats.requests) / points[0].secs;
  for (const SweepPoint& pt : points) {
    const double rate = static_cast<double>(pt.stats.requests) / pt.secs;
    const double speedup = rate / base_rate;
    const double window_ns =
        static_cast<double>(pt.stats.serial_ns + pt.stats.parallel_ns);
    const double serial_share =
        window_ns > 0 ? static_cast<double>(pt.stats.serial_ns) / window_ns
                      : 0;
    const double forked_ns = static_cast<double>(pt.shards) *
                             static_cast<double>(pt.stats.parallel_ns);
    const double idle_share =
        forked_ns > 0
            ? 1.0 - static_cast<double>(pt.stats.shard_busy_ns) / forked_ns
            : 0;
    table.row({bench::num(pt.shards), bench::num(pt.stats.requests),
               bench::num(pt.stats.granted), bench::num(pt.stats.windows),
               bench::num(pt.stats.events), bench::num(pt.stats.cross_shard),
               bench::num(pt.stats.tree_builds),
               bench::fp(rate / 1e3, 1) + "k", bench::fp(speedup) + "x",
               bench::fp(serial_share), bench::fp(idle_share)});
    const std::string suffix = ".s" + std::to_string(pt.shards);
    run.registry().set_gauge("perf.forest.requests_per_sec" + suffix, rate);
    run.registry().set_gauge(
        "perf.forest.events_per_sec" + suffix,
        static_cast<double>(pt.stats.events) / pt.secs);
    run.registry().set_gauge("perf.forest.speedup" + suffix, speedup);
    run.registry().set_gauge("perf.forest.serial_share" + suffix,
                             serial_share);
    run.registry().set_gauge("perf.forest.shard_idle_share" + suffix,
                             idle_share);
  }
  table.print();
  std::printf("\n  determinism: all %zu shard counts byte-identical  [ok]\n",
              points.size());

  bench::subhead("memory model (eager build priced against the lazy engine)");
  {
    const double trees_d = static_cast<double>(knobs.trees);
    // Eager price: what the pre-lazy engine paid — every tree's
    // DynamicTree + controller on the heap at construction, kept (and
    // grown by the workload) for the whole run.  Measured post-run so the
    // comparison with the lazy engine is the same workload's footprint,
    // not construction vs steady state.
    double eager_secs = 0;
    double eager_bytes_per_tree = 0;
    {
      forest::ForestConfig cfg = scaling_config(1, knobs);
      cfg.eager = true;
      cfg.resident_trees = 0;  // the pre-lazy engine never evicted
      const auto t0 = Clock::now();
      auto engine = std::make_unique<forest::ForestEngine>(cfg, kSeed);
      eager_secs = std::chrono::duration<double>(Clock::now() - t0).count();
      obs::Registry reg;
      {
        obs::ScopedMetrics scope(reg);
        (void)engine->run();
      }
      if (obs::Registry* main = obs::metrics()) main->merge(reg);
      const forest::ForestMemStats m = engine->mem_stats();
      eager_bytes_per_tree =
          static_cast<double>(m.accounting_bytes()) / trees_d;
    }
    // Lazy price: startup is an index fill; the full run then materializes
    // only what the workload touches, within the residency budget.
    forest::ForestConfig cfg = scaling_config(1, knobs);
    const auto t0 = Clock::now();
    forest::ForestEngine engine(cfg, kSeed);
    const double lazy_secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    obs::Registry reg;
    forest::ForestStats st;
    {
      obs::ScopedMetrics scope(reg);
      st = engine.run();
    }
    if (obs::Registry* main = obs::metrics()) main->merge(reg);
    const forest::ForestMemStats m = engine.mem_stats();
    const double lazy_bytes_per_tree =
        static_cast<double>(m.accounting_bytes()) / trees_d;
    const double reduction =
        lazy_bytes_per_tree > 0 ? eager_bytes_per_tree / lazy_bytes_per_tree
                                : 0;
    const double startup_ratio = eager_secs > 0 ? lazy_secs / eager_secs : 0;

    obs::Registry& r = run.registry();
    r.set_gauge("perf.forest.bytes_per_tree", lazy_bytes_per_tree);
    r.set_gauge("perf.forest.bytes_per_tree_eager", eager_bytes_per_tree);
    r.set_gauge("perf.forest.mem_reduction", reduction);
    r.set_gauge("perf.forest.startup_sec_eager", eager_secs);
    r.set_gauge("perf.forest.startup_sec_lazy", lazy_secs);
    r.set_gauge("perf.forest.startup_ratio", startup_ratio);
    r.set_gauge("perf.mem.rss_bytes",
                static_cast<double>(obs::current_rss_bytes()));
    r.set_gauge("perf.mem.peak_rss_bytes",
                static_cast<double>(obs::peak_rss_bytes()));
    r.set_gauge("perf.mem.arena_bytes", static_cast<double>(m.arena_bytes));
    r.set_gauge("perf.mem.image_bytes", static_cast<double>(m.image_bytes));
    r.set_gauge("perf.mem.index_bytes", static_cast<double>(m.index_bytes));
    r.set_gauge("perf.mem.trees", static_cast<double>(m.trees));
    r.set_gauge("perf.mem.virgin_trees", static_cast<double>(m.virgin));
    r.set_gauge("perf.mem.resident_trees", static_cast<double>(m.resident));
    r.set_gauge("perf.mem.hibernated_trees",
                static_cast<double>(m.hibernated));
    r.set_gauge("perf.mem.materialized_trees",
                static_cast<double>(m.materialized));

    std::printf(
        "  eager: %.1f bytes/tree, startup %.3fs   lazy: %.1f bytes/tree, "
        "startup %.5fs\n"
        "  reduction=%.1fx  startup_ratio=%.4f  builds=%llu "
        "hibernations=%llu wakes=%llu avg_image=%.0f bits\n"
        "  trees: %llu virgin / %llu resident / %llu hibernated  "
        "(peak rss %.1f MiB)\n",
        eager_bytes_per_tree, eager_secs, lazy_bytes_per_tree, lazy_secs,
        reduction, startup_ratio,
        static_cast<unsigned long long>(st.tree_builds),
        static_cast<unsigned long long>(st.hibernations),
        static_cast<unsigned long long>(st.wakes),
        st.hibernations != 0 ? static_cast<double>(st.hibernate_bits) /
                                   static_cast<double>(st.hibernations)
                             : 0.0,
        static_cast<unsigned long long>(m.virgin),
        static_cast<unsigned long long>(m.resident),
        static_cast<unsigned long long>(m.hibernated),
        static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0));
  }

  bench::subhead(
      "steady-state allocation (echo service, shards=1, inline, --eager)");
  {
    forest::ForestConfig cfg = scaling_config(1, knobs);
    cfg.service = forest::Service::kEcho;
    cfg.eager = true;  // materialization is setup, not steady state
    cfg.resident_trees = 0;
    obs::Registry reg;
    forest::ForestEngine engine(cfg, kSeed);  // setup allocs excluded
    const std::uint64_t a0 = allocs_now();
    const auto t0 = Clock::now();
    forest::ForestStats st;
    {
      obs::ScopedMetrics scope(reg);
      st = engine.run();
    }
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    const std::uint64_t allocs = allocs_now() - a0;
    const double per_event =
        static_cast<double>(allocs) / static_cast<double>(st.events);
    if (obs::Registry* main = obs::metrics()) main->merge(reg);
    run.registry().set_gauge("perf.forest.allocs_per_event", per_event);
    run.registry().set_gauge("perf.forest.echo_events_per_sec",
                             static_cast<double>(st.events) / secs);
    std::printf(
        "  events=%llu  allocs=%llu  allocs/event=%.4f  (events/sec=%.0fk)\n",
        static_cast<unsigned long long>(st.events),
        static_cast<unsigned long long>(allocs), per_event,
        static_cast<double>(st.events) / secs / 1e3);
  }

  bench::subhead("run-engine scaling (8 independent runs per batch)");
  {
    // One batch per jobs value; on a single hardware thread the speedup
    // column simply reads ~1.0.
    const std::uint64_t runs = 8;
    std::vector<Batch> batches;
    bench::Table table({"jobs", "events", "events/s", "speedup vs j1",
                        "secs"});
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
      const Batch b = run_batch(jobs, runs, 256, 12'500);
      if (!batches.empty() && (b.events != batches.front().events ||
                               b.sends != batches.front().sends)) {
        std::fprintf(stderr,
                     "FATAL: run-engine batch at jobs=%u diverged from "
                     "jobs=1 (events %llu vs %llu)\n",
                     jobs, static_cast<unsigned long long>(b.events),
                     static_cast<unsigned long long>(
                         batches.front().events));
        return 1;
      }
      table.row({bench::num(jobs), bench::num(b.events),
                 bench::fp(b.events_per_sec(), 0),
                 bench::fp(batches.empty()
                               ? 1.0
                               : b.events_per_sec() /
                                     batches.front().events_per_sec(),
                           2),
                 bench::fp(b.secs, 3)});
      batches.push_back(b);
    }
    table.print();
    obs::Registry& r = run.registry();
    for (std::size_t i = 0; i < batches.size(); ++i) {
      r.set_gauge("perf.parallel.events_per_sec_j" + std::to_string(1u << i),
                  batches[i].events_per_sec());
    }
    r.set_gauge("perf.parallel.speedup_j4",
                batches[2].events_per_sec() / batches[0].events_per_sec());
    r.set_gauge("perf.parallel.hw_threads", static_cast<double>(hw));
    r.set("perf.parallel.events", batches.front().events);
    r.set("perf.parallel.runs",
          runs * static_cast<std::uint64_t>(batches.size()));
  }

  std::puts("");
  return 0;
}
