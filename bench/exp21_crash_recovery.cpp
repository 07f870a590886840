// EXP21 — crash recovery: recovery latency and permit-safety margin vs
// crash rate (PROTOCOL.md §9).
//
// A fixed async workload runs behind the reliable channel while the crash
// adversary's node fraction sweeps upward, in both durability modes.  The
// iterated wrapper re-drives crash-failed requests, so the watchdog's
// request-ticks histogram (armed at the submit boundary, disarmed at the
// final verdict) measures the *end-to-end* latency including every kill,
// release wave, and redrive — the recovery-latency percentiles reported
// here.  The permit-safety margin is M minus the permits actually granted;
// safety (granted <= M) must hold in every cell or the binary aborts.
//
// Determinism gate: the whole sweep runs twice — once at --jobs, once
// serially — and every point's registry JSON and run fingerprint must be
// byte-identical, or the binary aborts (the PR-5/6 contract extended to
// the crash adversary).
//
//   --jobs=N   worker threads for the parallel sweep (default: hardware)

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/iterated.hpp"
#include "sim/channel.hpp"
#include "sim/crash.hpp"
#include "sim/fault.hpp"
#include "sim/watchdog.hpp"
#include "util/thread_pool.hpp"
#include "workload/shapes.hpp"

using namespace dyncon;
using namespace dyncon::core;
using namespace dyncon::bench;

namespace {

constexpr std::uint64_t kNodes = 48;
constexpr std::uint64_t kRequests = 400;
constexpr std::uint64_t kM = 120, kW = 20, kU = 512;

struct Point {
  double fraction = 0.0;
  agent::Durability durability = agent::Durability::kVolatile;
};

struct Sample {
  std::uint64_t granted = 0, rejected = 0, surfaced = 0;
  std::uint64_t crashes = 0, restarts = 0, killed = 0, redrives = 0;
  std::uint64_t restored = 0, journal_writes = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  std::uint64_t messages = 0;
  sim::NetStats net;
  bool operator==(const Sample&) const = default;
};

Sample run_point(const Point& pt, std::uint64_t seed) {
  Sample out;
  Rng rng(seed);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform,
                                          seed + 66));
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, kNodes, rng);

  sim::CrashSchedule sch(Rng(seed + 3), pt.fraction, /*period=*/512,
                         /*down_len=*/64);
  sch.set_limit(kNodes);
  sch.set_immune(t.root());
  auto sched = std::make_shared<const sim::CrashSchedule>(sch);
  net.set_fault_policy(sim::make_crash_stack(nullptr, sched));
  net.enable_reliability();
  sim::CrashDriver crashes(queue, sched);
  sim::Watchdog wd(queue, 50'000'000);

  IteratedController::Options opts;
  opts.track_domains = false;
  opts.watchdog = &wd;
  opts.crashes = &crashes;
  opts.durability = pt.durability;
  opts.crash_redrives = 3;
  IteratedController ctrl(net, t, kM, kW, kU, opts);
  crashes.start(kNodes, SimTime{1} << 16);

  const auto nodes = t.alive_nodes();
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())], [&](const Result& r) {
      out.granted += r.granted();
      out.rejected += r.outcome == Outcome::kRejected;
      out.surfaced += r.crash_failed;
    });
  }
  queue.run();
  while (wd.run_recovery_sweep() > 0) queue.run();
  wd.verify_idle();

  out.crashes = crashes.crashes();
  out.restarts = crashes.restarts();
  out.messages = ctrl.messages_used();
  out.net = net.stats();
  if (const obs::Registry* reg = obs::metrics()) {
    out.killed = reg->counter("crash.agents_killed");
    out.redrives = reg->counter("recovery.redrives");
    out.restored = reg->counter("recovery.boards_restored");
    out.journal_writes = reg->counter("recovery.snapshot_writes");
    if (const obs::Histogram* h = reg->histogram("watchdog.request_ticks")) {
      out.p50 = h->percentile(0.50);
      out.p95 = h->percentile(0.95);
      out.p99 = h->percentile(0.99);
    }
  }
  bench::Run::note_net(out.net);
  return out;
}

const char* dur_name(agent::Durability d) { return agent::durability_name(d); }

}  // namespace

int main(int argc, char** argv) {
  bench::Run run("exp21_crash_recovery", argc, argv);
  const std::uint64_t seed = run.base_seed(21);
  banner("EXP21: recovery latency and permit-safety margin vs crash rate");

  std::vector<Point> points;
  for (const double f : {0.0, 0.1, 0.2, 0.3, 0.5}) {
    points.push_back({f, agent::Durability::kVolatile});
    points.push_back({f, agent::Durability::kDurable});
  }
  run.param("nodes", kNodes);
  run.param("requests", kRequests);
  run.param("M", kM);
  run.param("W", kW);
  run.param("points", static_cast<std::uint64_t>(points.size()));

  // Two full sweeps — parallel and serial — with per-point registries;
  // both the registry JSON and the run fingerprint of every point must
  // match byte-for-byte before anything merges into the report.
  auto sweep = [&](unsigned jobs, std::vector<Sample>& out,
                   std::vector<obs::Registry>& regs) {
    util::for_each_index(points.size(), jobs, [&](std::uint64_t i) {
      obs::ScopedMetrics scope(regs[static_cast<std::size_t>(i)]);
      out[static_cast<std::size_t>(i)] =
          run_point(points[static_cast<std::size_t>(i)], seed);
    });
  };
  std::vector<Sample> par(points.size()), ser(points.size());
  std::vector<obs::Registry> par_regs(points.size()), ser_regs(points.size());
  sweep(run.jobs(), par, par_regs);
  sweep(1, ser, ser_regs);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!(par[i] == ser[i]) ||
        par_regs[i].to_json().dump() != ser_regs[i].to_json().dump()) {
      std::fprintf(stderr,
                   "FATAL: point %zu (f=%.2f, %s) diverged between "
                   "--jobs=%u and the serial sweep — crash runs must be "
                   "byte-identical at any job count\n",
                   i, points[i].fraction, dur_name(points[i].durability),
                   run.jobs());
      return 1;
    }
  }
  for (const obs::Registry& r : par_regs) run.registry().merge(r);

  Table tab({"crash frac", "boards", "granted", "margin", "surfaced",
             "redrives", "killed", "crashes", "restored", "p50", "p95",
             "p99"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    const Sample& s = par[i];
    if (s.granted > kM) {
      std::fprintf(stderr,
                   "FATAL: point %zu granted %llu > M=%llu — a crash "
                   "minted permits\n",
                   i, static_cast<unsigned long long>(s.granted),
                   static_cast<unsigned long long>(kM));
      return 1;
    }
    const std::uint64_t margin = kM - s.granted;
    tab.row({fp(pt.fraction, 2), dur_name(pt.durability), num(s.granted),
             num(margin), num(s.surfaced), num(s.redrives), num(s.killed),
             num(s.crashes), num(s.restored), num(s.p50), num(s.p95),
             num(s.p99)});
    const std::string prefix = "exp21.point." + std::to_string(i);
    obs::gauge(prefix + ".crash_fraction", pt.fraction);
    obs::gauge(prefix + ".durable",
               pt.durability == agent::Durability::kDurable ? 1.0 : 0.0);
    obs::gauge(prefix + ".granted", static_cast<double>(s.granted));
    obs::gauge(prefix + ".safety_margin", static_cast<double>(margin));
    obs::gauge(prefix + ".crashes", static_cast<double>(s.crashes));
    obs::gauge(prefix + ".agents_killed", static_cast<double>(s.killed));
    obs::gauge(prefix + ".redrives", static_cast<double>(s.redrives));
    obs::gauge(prefix + ".boards_restored", static_cast<double>(s.restored));
    obs::gauge(prefix + ".latency.p50", static_cast<double>(s.p50));
    obs::gauge(prefix + ".latency.p95", static_cast<double>(s.p95));
    obs::gauge(prefix + ".latency.p99", static_cast<double>(s.p99));
  }
  tab.print();
  std::printf(
      "\n  determinism: all %zu points byte-identical at --jobs=%u vs "
      "serial  [ok]\n",
      points.size(), run.jobs());
  std::printf(
      "\nshape check: safety (granted <= M) holds in every cell; the "
      "f=0.00 rows are the crash-free baseline.  Volatile rows pay for "
      "crashes in verdicts and latency: killed agents surface crash-failed "
      "rejections once the redrive budget runs out, and every redrive "
      "stretches the tail.  Durable rows restore boards from the journal "
      "instead — no kills, no redrives, no surfaced failures — the "
      "measured value of journaling O(log N) bits per board (Claim 4.8).  "
      "The margin closes to 0 in every mode because demand far exceeds M "
      "and the iterated rotation recollects even crash-rescued permits.\n");
  return 0;
}
