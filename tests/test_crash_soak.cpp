// Crash soak: node crash/restart adversary crossed with the link-fault and
// delay adversaries, in both durability modes (PROTOCOL.md §9).  Every
// cell must keep the permit-safety invariant (granted <= M), answer every
// request, conserve permits, drain every agent and channel, collect every
// doomed holder, and end with a clean watchdog verdict.
//
// Named CrashSoak.* so the sanitizer CI job's `-E "Soak"` filter skips it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "agent/durable.hpp"
#include "core/distributed_controller.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/crash.hpp"
#include "sim/fault.hpp"
#include "sim/watchdog.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;

std::string label(sim::FaultKind f, sim::DelayKind d, agent::Durability dur,
                  std::uint64_t seed) {
  return std::string(sim::fault_kind_name(f)) + "/" +
         sim::delay_kind_name(d) + "/" + agent::durability_name(dur) +
         "/seed=" + std::to_string(seed);
}

void crash_soak_one(sim::FaultKind fault, sim::DelayKind delay,
                    agent::Durability durability, std::uint64_t seed) {
  SCOPED_TRACE(label(fault, delay, durability, seed));
  Rng rng(seed);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(delay, seed + 1));
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 32, rng);

  sim::CrashSchedule sch(Rng(seed + 3), 0.3, 512, 64);
  sch.set_limit(32);
  sch.set_immune(t.root());
  auto sched = std::make_shared<const sim::CrashSchedule>(sch);
  net.set_fault_policy(sim::make_crash_stack(
      fault == sim::FaultKind::kNone ? nullptr
                                     : sim::make_fault(fault, seed + 2),
      sched));
  net.enable_reliability();
  sim::CrashDriver crashes(queue, sched);
  sim::Watchdog wd(queue, 20'000'000);

  const std::uint64_t M = 60, W = 10;
  DistributedController::Options opts;
  opts.watchdog = &wd;
  opts.crashes = &crashes;
  opts.durability = durability;
  DistributedController ctrl(net, t, Params(M, W, 256), opts);
  crashes.start(32, SimTime{1} << 16);

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
  while (wd.run_recovery_sweep() > 0) queue.run();
  wd.verify_idle();

  // Safety and liveness.  Crash-failed requests surface as rejections, so
  // every request still gets exactly one verdict; the M-W band is only
  // promised when nothing is lost (durable mode) — a volatile crash may
  // strand rescued permits in static packages nobody asks for again.
  EXPECT_EQ(answered, requests);
  EXPECT_EQ(granted + rejected, requests);
  EXPECT_LE(granted, M);
  if (durability == agent::Durability::kDurable) {
    EXPECT_GE(granted, M - W);
    ASSERT_NE(ctrl.durable_store(), nullptr);
    EXPECT_GT(ctrl.durable_store()->writes(), 0u);
  }
  // Conservation and drain: crashes never mint or destroy permits, every
  // agent and channel drains, and every doomed holder was collected.
  EXPECT_EQ(ctrl.permits_granted() + ctrl.unused_permits(), M);
  EXPECT_EQ(ctrl.active_agents(), 0u);
  EXPECT_EQ(ctrl.doomed_holders(), 0u);
  ASSERT_NE(net.channel(), nullptr);
  EXPECT_EQ(net.channel()->in_flight(), 0u);
  // The adversary actually fired.
  EXPECT_GT(crashes.crashes(), 0u);
  EXPECT_GE(crashes.crashes(), crashes.restarts());
}

TEST(CrashSoak, EveryFaultTimesDelayTimesDurability) {
  constexpr sim::FaultKind kFaults[] = {
      sim::FaultKind::kNone, sim::FaultKind::kDrop, sim::FaultKind::kChaos};
  constexpr sim::DelayKind kDelays[] = {sim::DelayKind::kFixed,
                                        sim::DelayKind::kReorder,
                                        sim::DelayKind::kHeavyTail};
  constexpr agent::Durability kDur[] = {agent::Durability::kVolatile,
                                        agent::Durability::kDurable};
  std::vector<std::tuple<sim::FaultKind, sim::DelayKind, agent::Durability>>
      grid;
  for (const auto f : kFaults) {
    for (const auto d : kDelays) {
      for (const auto dur : kDur) grid.emplace_back(f, d, dur);
    }
  }
  util::for_each_index(grid.size(), util::ThreadPool::hardware_jobs(),
                       [&](std::uint64_t i) {
                         const auto& [f, d, dur] = grid[i];
                         crash_soak_one(f, d, dur, 7);
                       });
}

TEST(CrashSoak, SeedSweepUnderCrashChaos) {
  std::vector<std::pair<agent::Durability, std::uint64_t>> grid;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    grid.emplace_back(agent::Durability::kVolatile, seed);
    grid.emplace_back(agent::Durability::kDurable, 100 + seed);
  }
  util::for_each_index(grid.size(), util::ThreadPool::hardware_jobs(),
                       [&](std::uint64_t i) {
                         crash_soak_one(sim::FaultKind::kChaos,
                                        sim::DelayKind::kReorder,
                                        grid[i].first, grid[i].second);
                       });
}

TEST(CrashSoak, TopologyChurnUnderCrashes) {
  // Crashes interleaved with topological requests: adds extend the tree
  // (past the crash limit — nodes born mid-run never crash), removes make
  // later requests moot, and the durable journal must track the splices.
  for (const agent::Durability dur :
       {agent::Durability::kVolatile, agent::Durability::kDurable}) {
    SCOPED_TRACE(agent::durability_name(dur));
    Rng rng(17);
    sim::EventQueue queue;
    sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, 19));
    DynamicTree t;
    workload::build(t, workload::Shape::kRandomAttach, 32, rng);

    sim::CrashSchedule sch(Rng(23), 0.3, 512, 64);
    sch.set_limit(32);
    sch.set_immune(t.root());
    auto sched = std::make_shared<const sim::CrashSchedule>(sch);
    net.set_fault_policy(sim::make_crash_stack(nullptr, sched));
    net.enable_reliability();
    sim::CrashDriver crashes(queue, sched);
    sim::Watchdog wd(queue, 20'000'000);

    const std::uint64_t M = 60, W = 10;
    DistributedController::Options opts;
    opts.watchdog = &wd;
    opts.crashes = &crashes;
    opts.durability = dur;
    DistributedController ctrl(net, t, Params(M, W, 256), opts);
    crashes.start(32, SimTime{1} << 16);

    const auto nodes = t.alive_nodes();
    std::uint64_t answered = 0, granted = 0, rejected = 0, moot = 0;
    const std::uint64_t requests = 100;
    for (std::uint64_t i = 0; i < requests; ++i) {
      const NodeId subject = nodes[rng.index(nodes.size())];
      auto done = [&](const Result& r) {
        ++answered;
        granted += r.granted();
        rejected += r.outcome == Outcome::kRejected;
        moot += r.outcome == Outcome::kMoot;
      };
      const std::size_t die = rng.index(100);
      if (die < 60) {
        ctrl.submit_event(subject, done);
      } else if (die < 85) {
        ctrl.submit_add_leaf(subject, done);
      } else if (subject != t.root()) {
        ctrl.submit_remove(subject, done);
      } else {
        ctrl.submit_event(subject, done);
      }
    }
    queue.run();
    while (wd.run_recovery_sweep() > 0) queue.run();
    wd.verify_idle();

    EXPECT_EQ(answered, requests);
    EXPECT_EQ(granted + rejected + moot, requests);
    EXPECT_LE(granted, M);
    EXPECT_EQ(ctrl.permits_granted() + ctrl.unused_permits(), M);
    EXPECT_EQ(ctrl.active_agents(), 0u);
    EXPECT_EQ(ctrl.doomed_holders(), 0u);
    EXPECT_EQ(net.channel()->in_flight(), 0u);
    EXPECT_GT(crashes.crashes(), 0u);
  }
}

TEST(CrashSoak, BatchingIdentityUnderCrashes) {
  // One grid cell (chaos faults x reorder delay x durable journal), run
  // with delivery batching on and off: coalescing is transport-only, so
  // the registries and outcome tallies must be byte-identical even while
  // nodes crash mid-flight.  CI's chaos-smoke job also runs this cell on
  // its own so a batching regression under crashes is attributable at a
  // glance.
  struct Fingerprint {
    std::string registry;
    std::uint64_t answered = 0, granted = 0, rejected = 0, frames = 0;
  };
  auto run_cell = [](bool batching) {
    Fingerprint fp;
    obs::Registry reg;
    obs::ScopedMetrics scope(reg);
    Rng rng(7);
    sim::EventQueue queue;
    sim::Network net(queue, sim::make_delay(sim::DelayKind::kReorder, 8));
    net.set_batching(batching);
    DynamicTree t;
    workload::build(t, workload::Shape::kRandomAttach, 32, rng);

    sim::CrashSchedule sch(Rng(10), 0.3, 512, 64);
    sch.set_limit(32);
    sch.set_immune(t.root());
    auto sched = std::make_shared<const sim::CrashSchedule>(sch);
    net.set_fault_policy(sim::make_crash_stack(
        sim::make_fault(sim::FaultKind::kChaos, 9), sched));
    net.enable_reliability();
    sim::CrashDriver crashes(queue, sched);
    sim::Watchdog wd(queue, 20'000'000);

    const std::uint64_t M = 60, W = 10;
    DistributedController::Options opts;
    opts.watchdog = &wd;
    opts.crashes = &crashes;
    opts.durability = agent::Durability::kDurable;
    DistributedController ctrl(net, t, Params(M, W, 256), opts);
    crashes.start(32, SimTime{1} << 16);

    const auto nodes = t.alive_nodes();
    for (std::uint64_t i = 0; i < 150; ++i) {
      ctrl.submit_event(nodes[rng.index(nodes.size())], [&](const Result& r) {
        ++fp.answered;
        fp.granted += r.granted();
        fp.rejected += r.outcome == Outcome::kRejected;
      });
    }
    queue.run();
    while (wd.run_recovery_sweep() > 0) queue.run();
    wd.verify_idle();
    fp.frames = net.batch_frames();
    fp.registry = reg.to_json().dump();
    return fp;
  };

  const Fingerprint batched = run_cell(true);
  const Fingerprint plain = run_cell(false);
  EXPECT_EQ(batched.answered, 150u);
  EXPECT_EQ(batched.registry, plain.registry);
  EXPECT_EQ(batched.answered, plain.answered);
  EXPECT_EQ(batched.granted, plain.granted);
  EXPECT_EQ(batched.rejected, plain.rejected);
  // The knob actually engaged: frames only exist on the batched run.
  EXPECT_EQ(plain.frames, 0u);
  EXPECT_GT(batched.frames, 0u);
}

TEST(CrashSoak, WatchdogConvictsWithoutTheChannel) {
  // Control experiment: the same crash adversary without the reliable
  // channel loses agent hops for good — the watchdog must convict (after
  // exhausting its probe extensions), proving the cells above are guarded.
  Rng rng(3);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, 17));
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 24, rng);

  sim::CrashSchedule sch(Rng(41), 0.8, 128, 48);
  sch.set_limit(24);
  sch.set_immune(t.root());
  auto sched = std::make_shared<const sim::CrashSchedule>(sch);
  net.set_fault_policy(sim::make_crash_stack(nullptr, sched));
  sim::CrashDriver crashes(queue, sched);
  sim::Watchdog wd(queue, 100000);
  DistributedController::Options opts;
  opts.watchdog = &wd;
  opts.crashes = &crashes;
  opts.allow_unreliable_transport = true;
  DistributedController ctrl(net, t, Params(40, 8, 128), opts);
  crashes.start(24, SimTime{1} << 16);
  const auto nodes = t.alive_nodes();
  for (int i = 0; i < 40; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())], [](const Result&) {});
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
