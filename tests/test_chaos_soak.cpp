// Chaos soak: the distributed controller, behind the reliable channel,
// survives every fault adversary crossed with every delay adversary —
// safety (granted <= M), liveness (every request answered; granted >=
// M - W once demand exceeds the budget), permit conservation, agent
// drain, domain invariants, and a clean watchdog verdict.
//
// Named ChaosSoak.* so the sanitizer CI job's `-E "Soak"` filter skips it
// (it is the longest-running tier-1 test after the heavy soaks).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/distributed_controller.hpp"
#include "core/iterated.hpp"
#include "sim/channel.hpp"
#include "sim/fault.hpp"
#include "sim/watchdog.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;

constexpr sim::DelayKind kAllDelays[] = {
    sim::DelayKind::kFixed, sim::DelayKind::kUniform,
    sim::DelayKind::kHeavyTail, sim::DelayKind::kBiased,
    sim::DelayKind::kReorder};

std::string label(sim::FaultKind f, sim::DelayKind d, std::uint64_t seed) {
  return std::string(sim::fault_kind_name(f)) + "/" +
         sim::delay_kind_name(d) + "/seed=" + std::to_string(seed);
}

void soak_one(sim::FaultKind fault, sim::DelayKind delay,
              std::uint64_t seed) {
  SCOPED_TRACE(label(fault, delay, seed));
  Rng rng(seed);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(delay, seed + 1));
  net.set_fault_policy(sim::make_fault(fault, seed + 2));
  net.enable_reliability();
  // Per-request deadline far above any honest completion time; what it
  // must catch is "never", not "slow".
  sim::Watchdog wd(queue, 20'000'000);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 32, rng);

  const std::uint64_t M = 60, W = 10;
  DistributedController::Options opts;
  opts.watchdog = &wd;
  DistributedController ctrl(net, t, Params(M, W, 256), opts);
  const auto nodes = t.alive_nodes();
  std::uint64_t answered = 0, granted = 0, rejected = 0;
  const std::uint64_t requests = 150;
  for (std::uint64_t i = 0; i < requests; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())], [&](const Result& r) {
      ++answered;
      granted += r.granted();
      rejected += r.outcome == Outcome::kRejected;
    });
  }
  queue.run();
  wd.verify_idle();

  // Liveness: every request got a verdict, and the controller used its
  // budget up to the paper's W slack.
  EXPECT_EQ(answered, requests);
  EXPECT_EQ(granted + rejected, requests);
  EXPECT_LE(granted, M);
  EXPECT_GE(granted, M - W);
  // Conservation and drain.
  EXPECT_EQ(ctrl.permits_granted() + ctrl.unused_permits(), M);
  EXPECT_EQ(ctrl.active_agents(), 0u);
  ASSERT_NE(net.channel(), nullptr);
  EXPECT_EQ(net.channel()->in_flight(), 0u);
  ASSERT_NE(ctrl.domains(), nullptr);
  EXPECT_EQ(ctrl.domains()->check_invariants(), "");
  // The fault adversary actually did something (kNone aside) — otherwise
  // this soak is vacuous.
  const sim::FaultStats& fs = net.fault_stats();
  if (fault == sim::FaultKind::kNone) {
    EXPECT_EQ(fs.drops + fs.duplicates + fs.stalls, 0u);
    EXPECT_EQ(net.channel()->stats().retransmits, 0u);
  } else {
    EXPECT_GT(fs.drops + fs.duplicates + fs.stalls, 0u);
  }
}

TEST(ChaosSoak, EveryFaultTimesEveryDelay) {
  // Every grid point is an independent seeded simulation, so the soak
  // fans out across the pool; googletest's EXPECT_* machinery is
  // thread-safe on pthreads platforms.
  std::vector<std::pair<sim::FaultKind, sim::DelayKind>> grid;
  for (const sim::FaultKind fault : sim::all_fault_kinds()) {
    for (const sim::DelayKind delay : kAllDelays) {
      grid.emplace_back(fault, delay);
    }
  }
  util::for_each_index(grid.size(), util::ThreadPool::hardware_jobs(),
                       [&](std::uint64_t i) {
                         soak_one(grid[i].first, grid[i].second, 7);
                       });
}

TEST(ChaosSoak, SeedSweepUnderFullChaos) {
  std::vector<std::pair<sim::DelayKind, std::uint64_t>> grid;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    grid.emplace_back(sim::DelayKind::kReorder, seed);
    grid.emplace_back(sim::DelayKind::kHeavyTail, 100 + seed);
  }
  util::for_each_index(grid.size(), util::ThreadPool::hardware_jobs(),
                       [&](std::uint64_t i) {
                         soak_one(sim::FaultKind::kChaos, grid[i].first,
                                  grid[i].second);
                       });
}

TEST(ChaosSoak, IteratedPipelineSurvivesChaos) {
  // The rotation machinery (drain, broadcast, replay) on a chaos-faulted
  // transport, watched at the wrapper's submit boundary.
  Rng rng(3);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kReorder, 17));
  net.set_fault_policy(sim::make_fault(sim::FaultKind::kChaos, 23));
  net.enable_reliability();
  sim::Watchdog wd(queue, 20'000'000);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 24, rng);

  const std::uint64_t M = 48, W = 6;
  IteratedController::Options opts;
  opts.watchdog = &wd;
  IteratedController ctrl(net, t, M, W, 256, opts);
  const auto nodes = t.alive_nodes();
  std::uint64_t answered = 0, granted = 0;
  const std::uint64_t requests = 120;
  for (std::uint64_t i = 0; i < requests; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())], [&](const Result& r) {
      ++answered;
      granted += r.granted();
    });
  }
  queue.run();
  wd.verify_idle();
  EXPECT_EQ(answered, requests);
  EXPECT_LE(granted, M);
  EXPECT_GE(granted, M - W);
  EXPECT_TRUE(ctrl.quiescent());
  EXPECT_EQ(net.channel()->in_flight(), 0u);
  EXPECT_EQ(wd.armed_total(), wd.completed_total());
}

TEST(ChaosSoak, WatchdogCatchesAStrandedRequest) {
  // Control experiment: take the channel away and the same chaos strands
  // an agent — the watchdog must convict, proving the soak above is
  // actually guarded.
  Rng rng(3);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, 17));
  net.set_fault_policy(std::make_unique<sim::DropFault>(Rng(5), 0.5));
  sim::Watchdog wd(queue, 100000);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 24, rng);
  DistributedController::Options opts;
  opts.watchdog = &wd;
  opts.allow_unreliable_transport = true;
  DistributedController ctrl(net, t, Params(40, 8, 128), opts);
  const auto nodes = t.alive_nodes();
  for (int i = 0; i < 20; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())],
                      [](const Result&) {});
  }
  EXPECT_THROW(
      {
        queue.run();
        wd.verify_idle();
      },
      sim::WatchdogError);
  EXPECT_GT(wd.outstanding(), 0u);
}

}  // namespace
}  // namespace dyncon::core
