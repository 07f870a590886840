#include "workloads.hpp"

#include <exception>
#include <memory>

#include "core/distributed_controller.hpp"
#include "core/distributed_iterated.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/crash.hpp"
#include "sim/fault.hpp"
#include "sim/watchdog.hpp"
#include "workload/shapes.hpp"

namespace perfbench {

using namespace dyncon;

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> all = [] {
    std::vector<Shape> v;
    // Every tree resident: mux -> shard -> CentralizedController -> barrier
    // exchange, with hibernation, network, agents and wire bypassed.  One
    // shard: its windows last ~0.5 ms, and on the 4-vCPU virtual machine
    // the benchmark was tuned on, waking pool workers every window made
    // 3-shard runs swing by 25-45% as the host's load shifted; forest-cold,
    // whose windows are ~6x longer, keeps three shards.
    Shape hot{"forest-hot", Family::kForest};
    hot.shards = 1;
    hot.trees = 1024;
    hot.users = 32768;
    hot.requests_per_user = 24;
    hot.tree_size = 48;
    hot.zipf_s = 0.9;
    hot.grow_fraction = 0.15;
    hot.shrink_fraction = 0.10;
    hot.think = 12;
    hot.eager = true;
    v.push_back(hot);

    // Many more trees than the residency budget: materialization,
    // hibernation and wake dominate.
    Shape cold = hot;
    cold.name = "forest-cold";
    cold.shards = 3;
    cold.trees = 100000;
    cold.users = 16384;
    cold.requests_per_user = 4;
    cold.resident_trees = 256;
    cold.eager = false;
    v.push_back(cold);

    // Single-thread event-queue / network / agent hot path; a scarce budget
    // (W = M/5) keeps permits migrating.
    Shape churn{"dist-churn", Family::kDistributed};
    churn.nodes = 1024;
    churn.requests = 100000;
    churn.max_gap = 3;
    churn.event_fraction = 0.5;
    v.push_back(churn);

    // Same layers under chaos faults and node crashes: reliable channel,
    // durable whiteboards, watchdog, redrives.
    Shape faulty{"dist-faulty", Family::kDistributed};
    faulty.instances = 16;
    faulty.nodes = 192;
    faulty.requests = 1500;
    faulty.max_gap = 7;
    faulty.event_fraction = 1.0;
    faulty.faulty = true;
    v.push_back(faulty);
    return v;
  }();
  return all;
}

const Shape* find_shape(std::string_view name) {
  for (const Shape& s : shapes()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

forest::ForestConfig forest_config(const Shape& s, bool echo) {
  forest::ForestConfig cfg;
  cfg.shards = s.shards;
  cfg.mux.users = s.users;
  cfg.mux.trees = s.trees;
  cfg.mux.requests_per_user = s.requests_per_user;
  cfg.mux.zipf_s = s.zipf_s;
  cfg.mux.grow_fraction = s.grow_fraction;
  cfg.mux.shrink_fraction = s.shrink_fraction;
  cfg.mux.mean_think = s.think;
  cfg.tree_size = s.tree_size;
  cfg.window = kWindow;
  cfg.resident_trees = s.resident_trees;
  cfg.eager = s.eager;
  cfg.service = echo ? forest::Service::kEcho : forest::Service::kController;
  return cfg;
}

namespace {

void check(RepResult& r, bool ok, const char* what) {
  if (ok) return;
  ++r.failed;
  r.failed_checks.emplace_back(what);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void add_counters(Counters& out, const obs::Registry& reg,
                  std::initializer_list<const char*> names) {
  for (const char* n : names) out[n] += reg.counter(n);
}

// ---- forest ----------------------------------------------------------------

RepResult run_forest(const Shape& s, std::uint64_t seed, bool echo) {
  RepResult r;
  // The main thread's registry: the exchange closes requests here
  // (req.latency.*) and run() merges every shard registry into it.
  obs::Registry reg;
  obs::ScopedMetrics scope(reg);
  const forest::ForestConfig cfg = forest_config(s, echo);

  const auto t0 = Clock::now();
  std::unique_ptr<forest::ForestEngine> engine;
  {
    Span span("setup");
    engine = std::make_unique<forest::ForestEngine>(cfg, seed);
  }
  r.setup_s = seconds_since(t0);
  r.attempted = s.users * s.requests_per_user;

  r.window_ms.reserve(4096);
  const std::uint64_t a0 = allocs_now();
  const auto t1 = Clock::now();
  {
    Span serve("serve");
    for (;;) {
      const auto w0 = Clock::now();
      bool more = false;
      {
        Span w("step_window");
        more = engine->step_window();
      }
      if (!more) break;
      r.window_ms.push_back(ms_since(w0));
    }
  }
  r.timed_s = seconds_since(t1);
  r.timed_allocs = allocs_now() - a0;

  // Already drained: run() only folds the shard statistics and merges the
  // shard registries into `reg`.
  const forest::ForestStats st = engine->run();
  r.verdicts = st.granted + st.rejected + st.other;
  check(r, st.requests == r.attempted,
        "forest requests == users x requests_per_user");
  check(r, r.verdicts == st.requests, "every forest request has one verdict");
  check(r, reg.counter("forest.requests.total") == st.requests,
        "forest.requests.total matches completions");
  if (r.verdicts < r.attempted) r.failed += r.attempted - r.verdicts;

  Counters& fp = r.fingerprint;
  add_counters(fp, reg,
                {"forest.requests.total", "forest.requests.granted",
                 "forest.requests.rejected", "forest.requests.other",
                 "moves.total"});
  for (const auto& [name, h] : reg.histograms()) {
    if (name.rfind("req.latency.", 0) == 0) {
      fp[name + ".count"] = h.count;
      fp[name + ".sum"] = h.sum;
    }
  }
  fp["events"] = st.events;
  fp["windows"] = st.windows;

  Counters& c = r.counts;
  c["requests"] = st.requests;
  c["events"] = st.events;
  c["windows"] = st.windows;
  c["handoffs"] = st.handoffs;
  c["cross_shard"] = st.cross_shard;
  c["tree_instances"] = st.tree_builds;
  // Builds inside the timed region (eager set-up builds every tree first).
  c["builds"] = st.tree_builds - (s.eager ? s.trees : 0);
  c["hibernations"] = st.hibernations;
  c["wakes"] = st.wakes;
  c["hibernate_bits"] = st.hibernate_bits;
  add_counters(c, reg,
                {"moves.total", "package.created", "package.splits",
                 "filler_search.steps"});
  return r;
}

// ---- distributed -----------------------------------------------------------

/// Per-rep arrival generator and the request bookkeeping the verdict
/// callbacks write into.
struct DistRun {
  sim::EventQueue* queue = nullptr;
  core::DistributedController* plain = nullptr;
  core::DistributedIterated* iterated = nullptr;
  const std::vector<SimTime>* when = nullptr;
  const std::vector<core::RequestSpec>* specs = nullptr;
  std::vector<std::uint8_t> verdicts;
  std::uint64_t granted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t other = 0;
  std::uint64_t crash_failed = 0;

  /// Request i arrives: submit it and schedule the next arrival (open
  /// loop: arrival times are fixed up front, whatever the backlog).
  void arrive(std::uint64_t i) {
    if (i + 1 < when->size()) {
      queue->schedule_at((*when)[i + 1], [this, i] { arrive(i + 1); });
    }
    Span span("submit");
    auto done = [this, i](const core::Result& res) { verdict(i, res); };
    if (plain != nullptr) {
      plain->submit((*specs)[i], done);
    } else {
      iterated->submit((*specs)[i], done);
    }
  }

  void verdict(std::uint64_t i, const core::Result& res) {
    if (verdicts[i] < 255) ++verdicts[i];
    switch (res.outcome) {
      case core::Outcome::kGranted:
        ++granted;
        break;
      case core::Outcome::kRejected:
        ++rejected;
        break;
      default:
        ++other;
        break;
    }
    if (res.crash_failed) ++crash_failed;
  }
};

/// One controller instance serving s.requests; accumulates into `r`.
void run_instance(const Shape& s, std::uint64_t seed, RepResult& r) {
  obs::Registry reg;
  obs::ScopedMetrics scope(reg);

  const auto t0 = Clock::now();
  Span setup("setup");
  Rng rng(seed);
  sim::EventQueue queue;
  sim::Network net(queue,
                   sim::make_delay(s.faulty ? sim::DelayKind::kUniform
                                            : sim::DelayKind::kFixed,
                                   rng.split_seed()));
  tree::DynamicTree tree;
  workload::build(tree, workload::Shape::kRandomAttach, s.nodes, rng);
  const std::vector<NodeId> subjects = tree.alive_nodes();

  // Open-loop arrivals, drawn up front and generated one event ahead.
  // Subjects come from the initial node set, which grow-only churn never
  // deletes.
  Rng arrivals(rng.split_seed());
  std::vector<SimTime> when(s.requests);
  std::vector<core::RequestSpec> specs(s.requests);
  SimTime t = 0;
  for (std::uint64_t i = 0; i < s.requests; ++i) {
    t += arrivals.uniform(1, s.max_gap);
    when[i] = t;
    specs[i] = {arrivals.chance(s.event_fraction)
                    ? core::RequestSpec::Type::kEvent
                    : core::RequestSpec::Type::kAddLeaf,
                subjects[arrivals.index(subjects.size())]};
  }

  // Budget M = requests, W = M/5: scarce enough that permits keep moving.
  const std::uint64_t M = s.requests;
  const std::uint64_t W = M / 5;
  const std::uint64_t U = 4 * s.nodes + 4 * s.requests;

  std::unique_ptr<sim::CrashDriver> crashes;
  std::unique_ptr<sim::Watchdog> watchdog;
  std::unique_ptr<core::DistributedController> plain;
  std::unique_ptr<core::DistributedIterated> iterated;
  if (s.faulty) {
    sim::CrashSchedule sch(Rng(rng.split_seed()), /*node_fraction=*/0.2,
                           /*period=*/512, /*down_len=*/64);
    sch.set_limit(s.nodes);
    sch.set_immune(tree.root());
    auto sched = std::make_shared<const sim::CrashSchedule>(sch);
    net.set_fault_policy(sim::make_crash_stack(
        sim::make_fault(sim::FaultKind::kChaos, rng.split_seed()), sched));
    net.enable_reliability();
    crashes = std::make_unique<sim::CrashDriver>(queue, sched);
    // Deadline 0: tokens are armed and disarmed per request and
    // verify_idle enforces a verdict at drain, but no deadline probes are
    // scheduled, so every window carries request traffic.
    watchdog = std::make_unique<sim::Watchdog>(queue, 0);
    core::DistributedIterated::Options opts;
    opts.track_domains = false;
    opts.watchdog = watchdog.get();
    opts.crashes = crashes.get();
    opts.durability = agent::Durability::kDurable;
    opts.crash_redrives = 3;
    iterated =
        std::make_unique<core::DistributedIterated>(net, tree, M, W, U, opts);
    crashes->start(s.nodes, t);
  } else {
    core::DistributedController::Options opts;
    opts.track_domains = false;
    plain = std::make_unique<core::DistributedController>(
        net, tree, core::Params(M, W, U), opts);
  }

  DistRun run;
  run.queue = &queue;
  run.plain = plain.get();
  run.iterated = iterated.get();
  run.when = &when;
  run.specs = &specs;
  run.verdicts.assign(s.requests, 0);
  queue.schedule_at(when[0], [&run] { run.arrive(0); });
  r.attempted += s.requests;
  setup.close();
  r.setup_s += seconds_since(t0);

  const std::uint64_t a0 = allocs_now();
  const auto t1 = Clock::now();
  auto run_slices = [&] {
    while (!queue.empty()) {
      const auto w0 = Clock::now();
      {
        Span w("run_slice");
        queue.run(kSliceEvents);
      }
      r.window_ms.push_back(ms_since(w0));
    }
  };
  bool idle_ok = true;
  try {
    Span serve("serve");
    run_slices();
    if (watchdog != nullptr) {
      while (watchdog->run_recovery_sweep() > 0) run_slices();
    }
  } catch (const std::exception&) {
    idle_ok = false;
  }
  r.timed_s += seconds_since(t1);
  r.timed_allocs += allocs_now() - a0;
  if (watchdog != nullptr && idle_ok) {
    try {
      watchdog->verify_idle();
    } catch (const std::exception&) {
      idle_ok = false;
    }
  }
  check(r, idle_ok, "event loop drains and Watchdog::verify_idle passes");

  std::uint64_t one = 0;
  for (std::uint8_t v : run.verdicts) one += v == 1;
  r.verdicts += one;
  r.failed += (s.requests - one) + run.crash_failed;
  check(r, run.granted <= M, "granted <= M");
  check(r, run.rejected == 0 || run.granted + W >= M,
        "granted >= M - W once any request is rejected");

  const sim::NetStats& ns = net.stats();
  Counters& fp = r.fingerprint;
  add_counters(fp, reg,
               {"net.messages", "agent.hops", "moves.total",
                "channel.retransmits", "recovery.snapshot_writes"});
  fp["events"] += queue.events_fired();
  fp["verdicts.granted"] += run.granted;
  fp["verdicts.rejected"] += run.rejected;
  fp["verdicts.other"] += run.other;

  Counters& c = r.counts;
  c["requests"] += s.requests;
  c["events"] += queue.events_fired();
  c["messages"] += ns.messages;
  c["total_bits"] += ns.total_bits;
  for (std::size_t k = 0; k < sim::NetStats::kKinds; ++k) {
    c[std::string("kind.") + sim::msg_kind_name(static_cast<sim::MsgKind>(k))] +=
        ns.by_kind[k];
  }
  add_counters(c, reg,
               {"agent.hops", "agent.lock_waits", "moves.total",
                "package.created", "package.splits", "channel.data_frames",
                "channel.retransmits", "channel.acks",
                "recovery.snapshot_writes", "recovery.snapshot_bits"});
}

RepResult run_distributed(const Shape& s, std::uint64_t seed) {
  RepResult r;
  r.window_ms.reserve(4096);
  Rng seeds(seed);
  for (std::uint64_t k = 0; k < s.instances; ++k) {
    run_instance(s, seeds.split_seed(), r);
  }
  r.fingerprint["slices"] = r.window_ms.size();
  return r;
}

}  // namespace

RepResult run_rep(const Shape& s, std::uint64_t seed, bool echo) {
  if (s.family == Family::kForest) return run_forest(s, seed, echo);
  return run_distributed(s, seed);
}

}  // namespace perfbench
