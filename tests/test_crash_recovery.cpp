// Crash faults and recovery (PROTOCOL.md §9): the CrashSchedule's pure-
// function determinism contract, the durable-whiteboard codec (encode →
// decode identity plus the Claim 4.8 size bound), the orphan-lock release
// wave for doomed holders, journal-backed restarts, wrapper redrives, and
// byte-identity of crashy runs under a fixed seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "agent/durable.hpp"
#include "core/distributed_controller.hpp"
#include "core/iterated.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/crash.hpp"
#include "sim/fault.hpp"
#include "sim/watchdog.hpp"
#include "util/rng.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;

// ---- schedule ---------------------------------------------------------------

TEST(CrashSchedule, IsAPureFunctionOfNodeAndTime) {
  // Same seed, two instances: every query agrees — the schedule draws no
  // RNG after construction, so consulting it can never perturb a run.
  sim::CrashSchedule a(Rng(42), 0.5, 128, 16);
  sim::CrashSchedule b(Rng(42), 0.5, 128, 16);
  bool any_prone = false, any_immune = false;
  for (NodeId v = 0; v < 64; ++v) {
    ASSERT_EQ(a.crash_prone(v), b.crash_prone(v));
    any_prone |= a.crash_prone(v);
    any_immune |= !a.crash_prone(v);
    for (SimTime t = 0; t < 1024; t += 7) {
      ASSERT_EQ(a.down(v, t), b.down(v, t));
      ASSERT_EQ(a.down_for(v, t), b.down_for(v, t));
    }
  }
  // fraction=0.5 over 64 nodes: both classes must be inhabited or the
  // marking hash is broken.
  EXPECT_TRUE(any_prone);
  EXPECT_TRUE(any_immune);
}

TEST(CrashSchedule, WarmupWindowsAndImmunity) {
  sim::CrashSchedule s(Rng(7), 1.0, 100, 20);
  s.set_immune(0);
  EXPECT_FALSE(s.crash_prone(0));
  for (NodeId v = 1; v < 8; ++v) {
    ASSERT_TRUE(s.crash_prone(v));
    // Warmup: no node is ever down before one full period has elapsed, so
    // t=0 setup never runs against a dead node.
    for (SimTime t = 0; t < 100; ++t) ASSERT_FALSE(s.down(v, t));
    const std::vector<SimTime> wins = s.windows(v, 2000);
    ASSERT_FALSE(wins.empty());
    for (SimTime w : wins) {
      EXPECT_GE(w, s.period());
      EXPECT_TRUE(s.down(v, w));
      EXPECT_EQ(s.down_for(v, w), s.down_len());
      EXPECT_FALSE(s.down(v, w - 1));
      EXPECT_FALSE(s.down(v, w + s.down_len()));
    }
  }
  // Nodes at or past the limit were born after the adversary was fixed
  // and never crash.
  sim::CrashSchedule lim(Rng(7), 1.0, 100, 20);
  lim.set_limit(4);
  EXPECT_TRUE(lim.crash_prone(3));
  EXPECT_FALSE(lim.crash_prone(4));
  EXPECT_FALSE(lim.crash_prone(900));
  // The default-constructed schedule is crash-free.
  EXPECT_TRUE(sim::CrashSchedule().crash_free());
  EXPECT_FALSE(s.crash_free());
}

// ---- durable codec (satellite: snapshot property test) ----------------------

agent::BoardSnapshot random_snapshot(Rng& rng, std::uint64_t n) {
  agent::BoardSnapshot b;
  b.locked = rng.index(2) == 0;
  if (b.locked) b.locked_by = rng.index(1u << 20);
  b.flooded = rng.index(2) == 0;
  b.down_child = rng.index(3) == 0 ? kNoNode : NodeId{rng.index(n)};
  const std::size_t waiters = rng.index(6);
  for (std::size_t i = 0; i < waiters; ++i) {
    agent::ParkedAgent p;
    p.agent = rng.index(1u << 20);
    p.came_from = rng.index(4) == 0 ? kNoNode : NodeId{rng.index(n)};
    p.origin = rng.index(n);
    p.distance = rng.index(n + 1);  // <= n: a path can span the whole tree
    p.phase = static_cast<std::uint8_t>(rng.index(7));
    p.req_type = static_cast<std::uint8_t>(rng.index(4));
    p.req_subject = rng.index(n);
    b.queue.push_back(p);
  }
  return b;
}

TEST(DurableBoard, SnapshotRoundTripProperty) {
  // decode(encode(b)) == b for randomized snapshots, and the BitCounter
  // mirror predicts the exact encoded size.
  Rng rng(2026);
  for (int iter = 0; iter < 500; ++iter) {
    const std::uint64_t n = 2 + rng.index(500);
    const agent::BoardSnapshot b = random_snapshot(rng, n);
    const sim::Encoded e = agent::encode_board(b);
    ASSERT_EQ(agent::board_snapshot_bits(b), e.bits);
    ASSERT_EQ(agent::decode_board(e), b);
  }
}

TEST(DurableBoard, EncodedSizeStaysWithinClaim48Budget) {
  // Claim 4.8 charges O(log N) bits per parked agent; the serialized
  // journal entry must stay inside the accounting budget derived from the
  // same model whenever every node reference is < n and distance <= n.
  Rng rng(4711);
  for (int iter = 0; iter < 500; ++iter) {
    const std::uint64_t n = 2 + rng.index(2000);
    const agent::BoardSnapshot b = random_snapshot(rng, n);
    const sim::Encoded e = agent::encode_board(b);
    EXPECT_LE(e.bits, agent::board_snapshot_budget_bits(b, n))
        << "n=" << n << " waiters=" << b.queue.size();
  }
}

TEST(DurableBoard, EmptyBoardEncodesToAConstant) {
  const sim::Encoded e = agent::encode_board(agent::BoardSnapshot{});
  EXPECT_EQ(agent::decode_board(e), agent::BoardSnapshot{});
  // A blank board's journal entry is O(1) bits — restarts of idle nodes
  // are near-free.
  EXPECT_LE(e.bits, 32u);
}

// ---- orphan-lock release wave ----------------------------------------------

TEST(CrashRecovery, OrphanLockReleaseWaveFreesADoomedHolder) {
  // A deep chain; the agent locks its origin and climbs.  Crash the origin
  // while the agent is in flight above it: the holder is doomed, and the
  // release wave must reclaim its locks and fail the request so a later
  // request sails through.
  obs::Registry reg;
  obs::ScopedMetrics scope(reg);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kFixed, 1));
  DynamicTree t;
  NodeId tip = t.root();
  for (int i = 0; i < 7; ++i) tip = t.add_leaf(tip);

  const std::uint64_t M = 8, W = 2;
  DistributedController ctrl(net, t, Params(M, W, 64));
  Result first;
  bool first_done = false;
  ctrl.submit_event(tip, [&](const Result& r) {
    first = r;
    first_done = true;
  });
  // Step until the agent has hopped twice: it now holds the locks at the
  // origin and its parent and is in flight toward the grandparent.
  while (!queue.empty() && net.stats().kind(sim::MsgKind::kAgent) < 2) {
    queue.step();
  }
  ASSERT_EQ(net.stats().kind(sim::MsgKind::kAgent), 2u);
  ASSERT_FALSE(first_done);

  ctrl.on_crash(tip);  // volatile: board wiped, holder doomed
  EXPECT_EQ(ctrl.doomed_holders(), 1u);
  EXPECT_TRUE(ctrl.crash_recover());  // the release wave acts
  EXPECT_EQ(ctrl.doomed_holders(), 0u);
  queue.run();

  ASSERT_TRUE(first_done);
  EXPECT_EQ(first.outcome, Outcome::kRejected);
  EXPECT_TRUE(first.crash_failed);
  EXPECT_EQ(reg.counter("crash.holders_doomed"), 1u);
  EXPECT_EQ(reg.counter("crash.agents_killed"), 1u);
  EXPECT_EQ(reg.counter("crash.requests_failed"), 1u);
  EXPECT_EQ(reg.counter("recovery.release_waves"), 1u);
  // The parent's lock was the orphan (the origin's own lock evaporated
  // with the board).
  EXPECT_EQ(reg.counter("recovery.orphan_locks_released"), 1u);
  // The killed agent's in-flight hop landed after the kill and was
  // dropped as stale instead of tripping the unknown-agent invariant.
  EXPECT_EQ(reg.counter("crash.stale_arrivals"), 1u);

  // Every lock is free again: a fresh request at the same origin succeeds.
  Result second;
  bool second_done = false;
  ctrl.submit_event(tip, [&](const Result& r) {
    second = r;
    second_done = true;
  });
  queue.run();
  ASSERT_TRUE(second_done);
  EXPECT_EQ(second.outcome, Outcome::kGranted);
  EXPECT_EQ(ctrl.active_agents(), 0u);
  // The doomed request consumed nothing: conservation holds.
  EXPECT_EQ(ctrl.permits_granted() + ctrl.unused_permits(), M);
}

// ---- durable journal --------------------------------------------------------

TEST(CrashRecovery, DurableJournalRestoresBoardsAcrossOutages) {
  obs::Registry reg;
  obs::ScopedMetrics scope(reg);
  Rng rng(11);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, 12));
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 24, rng);

  sim::CrashSchedule sch(Rng(13), 0.4, 256, 32);
  sch.set_limit(24);
  sch.set_immune(t.root());
  auto sched = std::make_shared<const sim::CrashSchedule>(sch);
  net.set_fault_policy(sim::make_crash_stack(nullptr, sched));
  net.enable_reliability();
  sim::CrashDriver crashes(queue, sched);
  sim::Watchdog wd(queue, 20'000'000);

  const std::uint64_t M = 40, W = 8;
  DistributedController::Options opts;
  opts.watchdog = &wd;
  opts.crashes = &crashes;
  opts.durability = agent::Durability::kDurable;
  opts.meter_persistence = true;
  DistributedController ctrl(net, t, Params(M, W, 256), opts);
  crashes.start(24, SimTime{1} << 15);

  const auto nodes = t.alive_nodes();
  std::uint64_t answered = 0, granted = 0, rejected = 0;
  const std::uint64_t requests = 100;
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

  // Durable boards lose nothing: the full fault-free liveness band holds
  // even though nodes crashed mid-run.
  EXPECT_EQ(answered, requests);
  EXPECT_EQ(granted + rejected, requests);
  EXPECT_LE(granted, M);
  EXPECT_GE(granted, M - W);
  EXPECT_EQ(ctrl.permits_granted() + ctrl.unused_permits(), M);
  EXPECT_EQ(ctrl.active_agents(), 0u);
  EXPECT_EQ(ctrl.doomed_holders(), 0u);
  EXPECT_EQ(net.channel()->in_flight(), 0u);

  // The adversary actually fired, journals were written, and at least one
  // restart went through the decode-verify-reinstall path.
  EXPECT_GT(crashes.crashes(), 0u);
  EXPECT_GE(crashes.crashes(), crashes.restarts());
  ASSERT_NE(ctrl.durable_store(), nullptr);
  EXPECT_GT(ctrl.durable_store()->writes(), 0u);
  EXPECT_GT(ctrl.durable_store()->bits_written(), 0u);
  EXPECT_EQ(reg.counter("crash.node_crashes"), crashes.crashes());
  EXPECT_EQ(reg.counter("crash.node_restarts"), crashes.restarts());
  EXPECT_EQ(reg.counter("recovery.snapshot_writes"),
            ctrl.durable_store()->writes());
  EXPECT_GT(reg.counter("recovery.boards_restored"), 0u);
  // Persistence cost is metered §2.2 traffic when opted in.
  EXPECT_GT(net.stats().kind(sim::MsgKind::kApp), 0u);
}

// ---- wrapper redrive --------------------------------------------------------

TEST(CrashRecovery, IteratedWrapperRedrivesCrashFailedRequests) {
  obs::Registry reg;
  obs::ScopedMetrics scope(reg);
  Rng rng(29);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, 31));
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 24, rng);

  sim::CrashSchedule sch(Rng(37), 0.5, 192, 24);
  sch.set_limit(24);
  sch.set_immune(t.root());
  auto sched = std::make_shared<const sim::CrashSchedule>(sch);
  net.set_fault_policy(sim::make_crash_stack(nullptr, sched));
  net.enable_reliability();
  sim::CrashDriver crashes(queue, sched);
  sim::Watchdog wd(queue, 20'000'000);

  const std::uint64_t M = 48, W = 6;
  IteratedController::Options opts;
  opts.watchdog = &wd;
  opts.crashes = &crashes;
  opts.durability = agent::Durability::kVolatile;
  opts.crash_redrives = 3;
  IteratedController ctrl(net, t, M, W, 256, opts);
  crashes.start(24, SimTime{1} << 15);

  const auto nodes = t.alive_nodes();
  std::uint64_t answered = 0, granted = 0, surfaced_crash_failures = 0;
  const std::uint64_t requests = 120;
  for (std::uint64_t i = 0; i < requests; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())], [&](const Result& r) {
      ++answered;
      granted += r.granted();
      surfaced_crash_failures += r.crash_failed;
    });
  }
  queue.run();
  while (wd.run_recovery_sweep() > 0) queue.run();
  wd.verify_idle();

  EXPECT_EQ(answered, requests);
  EXPECT_LE(granted, M);
  EXPECT_TRUE(ctrl.quiescent());
  EXPECT_EQ(net.channel()->in_flight(), 0u);
  // Crashes killed agents, and the wrapper re-drove them instead of
  // surfacing the crash rejection (redrives > surfaced failures: the
  // budget of 3 absorbs them).
  EXPECT_GT(reg.counter("crash.agents_killed"), 0u);
  EXPECT_GT(reg.counter("recovery.redrives"), 0u);
  EXPECT_LE(surfaced_crash_failures, reg.counter("recovery.redrives"));
}

// ---- determinism ------------------------------------------------------------

TEST(CrashRecovery, SameSeedIsByteIdentical) {
  // The PR-5/6 contract extended to the crash adversary: the whole crashy
  // run — message counts, per-kind byte counts, crash transitions, grants
  // — is a pure function of the seed.
  struct Fingerprint {
    sim::NetStats stats;
    std::uint64_t granted = 0, messages = 0, crashes = 0, restarts = 0;
    bool operator==(const Fingerprint&) const = default;
  };
  auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    sim::EventQueue queue;
    sim::Network net(queue, sim::make_delay(sim::DelayKind::kReorder,
                                            seed + 1));
    tree::DynamicTree t;
    workload::build(t, workload::Shape::kRandomAttach, 24, rng);
    sim::CrashSchedule sch(Rng(seed + 3), 0.3, 256, 32);
    sch.set_limit(24);
    sch.set_immune(t.root());
    auto sched = std::make_shared<const sim::CrashSchedule>(sch);
    net.set_fault_policy(sim::make_crash_stack(
        sim::make_fault(sim::FaultKind::kChaos, seed + 2), sched));
    net.enable_reliability();
    sim::CrashDriver crashes(queue, sched);
    sim::Watchdog wd(queue, 20'000'000);
    DistributedController::Options opts;
    opts.watchdog = &wd;
    opts.crashes = &crashes;
    DistributedController ctrl(net, t, Params(40, 8, 256), opts);
    crashes.start(24, SimTime{1} << 15);
    const auto nodes = t.alive_nodes();
    for (std::uint64_t i = 0; i < 80; ++i) {
      ctrl.submit_event(nodes[rng.index(nodes.size())],
                        [](const Result&) {});
    }
    queue.run();
    while (wd.run_recovery_sweep() > 0) queue.run();
    wd.verify_idle();
    return Fingerprint{net.stats(), ctrl.permits_granted(),
                       ctrl.messages_used(), crashes.crashes(),
                       crashes.restarts()};
  };
  const Fingerprint a = run(9);
  const Fingerprint b = run(9);
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.crashes, 0u);
}

}  // namespace
}  // namespace dyncon::core
