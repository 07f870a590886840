// Continuous randomized stress for the distributed controller stack.
//
// Runs random (seed, shape, churn, delay, fault, burst) combinations until
// the time budget expires, auditing after every burst:
//   * structural validity of the tree,
//   * all agents drained,
//   * Claim 3.1 domain invariants,
//   * permit conservation, safety, and the liveness band.
//
// Every run injects a random transport-fault adversary and rides the
// reliable channel over it, guarded by a watchdog: a stranded request or a
// stuck channel frame is a failure like any other.
//
// On a violation it prints the failing configuration (which is enough to
// reproduce deterministically — everything is seeded) and exits nonzero.
//
//   usage: fuzz_controller [--seconds N | --runs N] [--base-seed S]
//                          [--jobs J] [--crash-rate F]
//
// --crash-rate F (in [0, 1]) adds the node crash/restart adversary on top
// of the rolled transport fault: each seed draws a crash-schedule salt, a
// durability mode (volatile boards vs journaled), and a redrive budget, and
// the run audits the recovery machinery — orphan-lock release waves,
// journal replay, crash-failed verdict accounting — alongside the usual
// invariants.  The default of 0 leaves every historical seed's verdict
// untouched.
//
// --runs N explores exactly N consecutive seeds (base-seed + i), split
// across J pool workers; every worker audits independent configurations,
// and a failure is reported for the LOWEST failing seed regardless of
// scheduling, so the fixed-count mode's output is byte-identical at any
// --jobs value.  --seconds keeps the classic wall-clock budget (workers
// pull seeds from a shared counter; throughput scales, output order does
// not matter since success prints only a total).  --start-seed is kept as
// an alias for --base-seed.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/distributed_iterated.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/crash.hpp"
#include "sim/fault.hpp"
#include "sim/watchdog.hpp"
#include "tree/validate.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

using namespace dyncon;

namespace {

struct Config {
  std::uint64_t seed;
  sim::DelayKind delay;
  workload::Shape shape;
  workload::ChurnModel churn;
  sim::FaultKind fault;
  std::uint64_t fault_seed;
  std::uint64_t n0;
  std::uint64_t m;
  std::uint64_t w;
  std::uint64_t steps;
  std::uint64_t max_burst;
  // Crash-adversary dimension (--crash-rate > 0 only; zero keeps every
  // existing seed's configuration — and its verdict — byte-identical).
  double crash_rate = 0.0;
  std::uint64_t crash_seed = 0;
  bool durable = false;
  std::uint64_t redrives = 0;

  [[nodiscard]] std::string describe() const {
    char buf[384];
    int len = std::snprintf(
        buf, sizeof buf,
        "config: seed=%llu delay=%s shape=%s churn=%s fault=%s "
        "fault_seed=%llu n0=%llu M=%llu W=%llu steps=%llu "
        "burst<=%llu",
        static_cast<unsigned long long>(seed), sim::delay_kind_name(delay),
        workload::shape_name(shape), workload::churn_name(churn),
        sim::fault_kind_name(fault),
        static_cast<unsigned long long>(fault_seed),
        static_cast<unsigned long long>(n0),
        static_cast<unsigned long long>(m),
        static_cast<unsigned long long>(w),
        static_cast<unsigned long long>(steps),
        static_cast<unsigned long long>(max_burst));
    if (crash_rate > 0 && len > 0 &&
        static_cast<std::size_t>(len) < sizeof buf) {
      std::snprintf(buf + len, sizeof buf - static_cast<std::size_t>(len),
                    " crash=%.2f boards=%s redrives=%llu crash_seed=%llu",
                    crash_rate, durable ? "durable" : "volatile",
                    static_cast<unsigned long long>(redrives),
                    static_cast<unsigned long long>(crash_seed));
    }
    return buf;
  }
};

Config roll(std::uint64_t seed, double crash_rate) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const auto shapes = workload::all_shapes();
  const auto churns = workload::all_churn_models();
  Config c;
  c.seed = seed;
  c.delay = static_cast<sim::DelayKind>(rng.uniform(0, 3));
  c.shape = shapes[rng.index(shapes.size())];
  c.churn = churns[rng.index(churns.size())];
  const auto& faults = sim::all_fault_kinds();
  c.fault = faults[rng.index(faults.size())];
  c.fault_seed = rng.next();
  c.n0 = rng.uniform(2, 96);
  c.m = rng.uniform(1, 400);
  c.w = rng.uniform(0, c.m);
  c.steps = rng.uniform(50, 600);
  c.max_burst = rng.uniform(1, 16);
  // Crash fields draw last, and only when the mode is on, so turning the
  // flag off reproduces the historical stream for every seed exactly.
  if (crash_rate > 0) {
    c.crash_rate = crash_rate;
    c.crash_seed = rng.next();
    c.durable = rng.chance(0.5);
    c.redrives = rng.uniform(0, 3);
  }
  return c;
}

/// Returns an empty string on success, a description on failure.  The
/// caller's registry and trace are installed for the duration, so a failing
/// run leaves behind its full metrics snapshot and typed event tail.
std::string run_one(const Config& c, obs::Registry& reg,
                    obs::EventTrace& trace) {
  obs::ScopedMetrics metrics_scope(reg);
  obs::ScopedTrace trace_scope(trace);
  Rng rng(c.seed);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(c.delay, c.seed * 31 + 7));
  sim::Watchdog wd(queue, 50'000'000);
  tree::DynamicTree t;
  workload::build(t, c.shape, c.n0, rng);

  // The crash adversary rides the same fault stack as every other run: the
  // rolled transport fault composes under the crash drop filter, so a
  // crashy seed still sees its reorderings and duplicates.  Nodes born
  // under churn (ids >= n0) never crash; the root is immune (PROTOCOL.md
  // §9 modeling boundaries).  Declared before the controller so listener
  // deregistration in the controller's destructor finds them alive.
  std::shared_ptr<const sim::CrashSchedule> sched;
  std::unique_ptr<sim::CrashDriver> crashes;
  if (c.crash_rate > 0) {
    sim::CrashSchedule sch(Rng(c.crash_seed), c.crash_rate, /*period=*/512,
                           /*down_len=*/64);
    sch.set_limit(c.n0);
    sch.set_immune(t.root());
    sched = std::make_shared<const sim::CrashSchedule>(sch);
    net.set_fault_policy(
        sim::make_crash_stack(sim::make_fault(c.fault, c.fault_seed), sched));
    crashes = std::make_unique<sim::CrashDriver>(queue, sched);
  } else {
    net.set_fault_policy(sim::make_fault(c.fault, c.fault_seed));
  }
  net.enable_reliability();

  core::DistributedIterated::Options ctrl_opts;
  ctrl_opts.watchdog = &wd;
  if (crashes != nullptr) {
    ctrl_opts.crashes = crashes.get();
    ctrl_opts.durability = c.durable ? agent::Durability::kDurable
                                     : agent::Durability::kVolatile;
    ctrl_opts.crash_redrives = static_cast<std::uint32_t>(c.redrives);
  }
  core::DistributedIterated ctrl(net, t, c.m, c.w, /*U=*/8192, ctrl_opts);
  if (crashes != nullptr) crashes->start(c.n0, SimTime{1} << 18);
  workload::ChurnGenerator churn(c.churn, Rng(c.seed * 7 + 3));

  std::uint64_t answered = 0, granted = 0, rejected = 0, moot = 0;
  std::uint64_t surfaced = 0;
  std::uint64_t submitted = 0;
  while (submitted < c.steps) {
    std::uint64_t burst = rng.uniform(1, c.max_burst);
    // Crash mode runs the whole workload as one burst: every queue drain
    // advances virtual time past the stale watchdog deadlines (one per
    // armed request), so pre-scheduled crash windows can only intersect
    // request activity if all the activity shares the first drain — the
    // same single-drain structure the chaos soaks use.
    if (c.crash_rate > 0) burst = c.steps;
    for (std::uint64_t i = 0; i < burst && submitted < c.steps; ++i) {
      ++submitted;
      const core::RequestSpec spec =
          rng.chance(0.25)
              ? core::RequestSpec{core::RequestSpec::Type::kEvent,
                                  workload::random_node(t, rng)}
              : churn.next(t);
      ctrl.submit(spec, [&](const core::Result& r) {
        ++answered;
        granted += r.granted();
        rejected += r.outcome == core::Outcome::kRejected;
        moot += r.outcome == core::Outcome::kMoot;
        surfaced += r.crash_failed && r.outcome == core::Outcome::kRejected;
      });
    }
    queue.run();
    while (wd.run_recovery_sweep() > 0) queue.run();
    const auto valid = tree::validate(t);
    if (!valid.ok()) return "tree corrupt: " + valid.detail;
    if (const auto* inner = ctrl.inner()) {
      if (inner->active_agents() != 0) return "agents leaked";
      if (inner->doomed_holders() != 0) return "doomed holders leaked";
      if (const auto* dom = inner->domains()) {
        const std::string err = dom->check_invariants();
        if (!err.empty()) return "domain invariant: " + err;
      }
      if (inner->permits_granted() + inner->unused_permits() !=
          inner->params().M()) {
        return "permit conservation broken";
      }
    }
  }
  if (answered != submitted) return "requests lost";
  if (answered != granted + rejected + moot) return "outcome mismatch";
  if (ctrl.permits_granted() > c.m) return "safety violated";
  if (surfaced > 0 && !(c.crash_rate > 0 && !c.durable)) {
    return "crash-failed verdict outside volatile crash mode";
  }
  // Volatile crashes may strand rescued static permits (conservation still
  // holds — the soak grid asserts the band cell by cell), so the liveness
  // band binds whenever boards are durable or crash-free, and only honest
  // rejections (not surfaced crash failures) may trip it.
  if (!(c.crash_rate > 0 && !c.durable) && rejected > surfaced &&
      ctrl.permits_granted() + c.w < c.m) {
    return "liveness violated";
  }
  wd.verify_idle();  // throws WatchdogError -> reported via the catch
  if (net.channel()->in_flight() != 0) return "channel frames stuck";
  if (c.fault == sim::FaultKind::kNone && c.crash_rate == 0 &&
      net.channel()->stats().retransmits != 0) {
    return "retransmissions on a fault-free transport";
  }
  return {};
}

/// One audited configuration, post-mortem captured as a string so workers
/// can report without interleaving on stderr.  Returns the full failure
/// report, or nullopt on a clean run.
std::optional<std::string> audit_seed(std::uint64_t seed, double crash_rate) {
  const Config c = roll(seed, crash_rate);
  obs::Registry reg;
  obs::EventTrace trace(512);
  trace.enable(true);
  std::string failure;
  try {
    failure = run_one(c, reg, trace);
  } catch (const std::exception& e) {
    failure = std::string("exception: ") + e.what();
  }
  if (failure.empty()) return std::nullopt;
  // The post-mortem: every counter the run touched, then the last typed
  // events (JSONL, newest last) leading up to the violation.
  std::ostringstream out;
  out << "FAILURE: " << failure << "\n" << c.describe() << "\n";
  std::ostringstream snapshot;
  reg.to_json().dump(snapshot, 2);
  out << "metrics snapshot:\n" << snapshot.str() << "\n";
  out << "trace tail (" << trace.size() << " of " << trace.recorded()
      << " events, " << trace.overwritten() << " overwritten):\n";
  trace.dump_jsonl(out, 64);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool known = a.rfind("--seconds", 0) == 0 ||
                       a.rfind("--runs", 0) == 0 ||
                       a.rfind("--base-seed", 0) == 0 ||
                       a.rfind("--start-seed", 0) == 0 ||
                       a.rfind("--jobs", 0) == 0 ||
                       a.rfind("--crash-rate", 0) == 0;
    if (!known) {
      std::fprintf(stderr,
                   "usage: %s [--seconds N | --runs N] [--base-seed S] "
                   "[--jobs J] [--crash-rate F]\n",
                   argv[0]);
      return 1;
    }
    // Two-token spellings consume the next argv slot.
    if ((a == "--seconds" || a == "--runs" || a == "--base-seed" ||
         a == "--start-seed" || a == "--jobs" || a == "--crash-rate") &&
        i + 1 < argc) {
      ++i;
    }
  }
  const std::uint64_t seconds = util::flag_u64(argc, argv, "--seconds", 10);
  std::uint64_t base_seed = util::flag_u64(argc, argv, "--start-seed", 1);
  base_seed = util::flag_u64(argc, argv, "--base-seed", base_seed);
  unsigned jobs = static_cast<unsigned>(util::flag_u64(
      argc, argv, "--jobs", util::ThreadPool::hardware_jobs()));
  if (jobs == 0) jobs = 1;
  // --crash-rate F turns on the node crash/restart adversary (sim/crash)
  // at node fraction F; each seed then also rolls a durability mode, a
  // redrive budget, and a crash-schedule salt.
  double crash_rate = 0.0;
  if (const auto v = util::flag_value(argc, argv, "--crash-rate")) {
    char* end = nullptr;
    crash_rate = std::strtod(v->c_str(), &end);
    if (end == nullptr || *end != '\0' || !(crash_rate >= 0.0) ||
        crash_rate > 1.0) {
      std::fprintf(stderr, "--crash-rate=%s: expected a fraction in [0, 1]\n",
                   v->c_str());
      return 1;
    }
  }

  if (util::flag_present(argc, argv, "--runs")) {
    // Fixed-count mode: exactly N consecutive seeds, lowest failure wins.
    const std::uint64_t n = util::flag_u64(argc, argv, "--runs", 0);
    std::vector<std::optional<std::string>> failures(n);
    util::for_each_index(n, jobs, [&](std::uint64_t i) {
      failures[i] = audit_seed(base_seed + i, crash_rate);
    });
    for (std::uint64_t i = 0; i < n; ++i) {
      if (failures[i]) {
        std::fputs(failures[i]->c_str(), stderr);
        return 2;
      }
    }
    std::printf("fuzz_controller: %llu configurations clean "
                "(seeds %llu..%llu)\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(base_seed),
                static_cast<unsigned long long>(base_seed + n - 1));
    return 0;
  }

  // Wall-clock mode: workers pull seeds from a shared counter until the
  // deadline; the seed set explored depends on timing, the verdict on any
  // explored seed does not.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(seconds);
  std::atomic<std::uint64_t> next_seed{base_seed};
  std::atomic<std::uint64_t> clean_runs{0};
  std::mutex fail_mu;
  std::optional<std::string> first_failure;
  const unsigned workers = jobs;
  {
    util::ThreadPool pool(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.submit([&] {
        while (std::chrono::steady_clock::now() < deadline) {
          {
            std::scoped_lock lock(fail_mu);
            if (first_failure) return;
          }
          const std::uint64_t seed =
              next_seed.fetch_add(1, std::memory_order_relaxed);
          if (auto f = audit_seed(seed, crash_rate)) {
            std::scoped_lock lock(fail_mu);
            if (!first_failure) first_failure = std::move(f);
            return;
          }
          clean_runs.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    pool.wait_idle();
  }
  if (first_failure) {
    std::fputs(first_failure->c_str(), stderr);
    return 2;
  }
  std::printf("fuzz_controller: %llu configurations clean (%llus, %u jobs)\n",
              static_cast<unsigned long long>(
                  clean_runs.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(seconds), workers);
  return 0;
}
