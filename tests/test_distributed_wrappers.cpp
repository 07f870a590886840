// Unit tests for the distributed wrappers: Thm 4.7 (iterated), Obs 2.1
// (terminating) and Thm 4.9 / Appendix A (adaptive, unknown U).

#include <gtest/gtest.h>

#include <vector>

#include "core/distributed_adaptive.hpp"
#include "core/iterated.hpp"
#include "tree/validate.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;

struct Sim {
  sim::EventQueue queue;
  sim::Network net;
  DynamicTree tree;

  explicit Sim(sim::DelayKind kind = sim::DelayKind::kFixed,
               std::uint64_t seed = 1)
      : net(queue, sim::make_delay(kind, seed)) {}
};

/// Submit one request and run to completion.
template <typename Ctrl>
Result sync_submit(Sim& s, Ctrl& ctrl, const RequestSpec& spec) {
  Result out;
  bool fired = false;
  ctrl.submit(spec, [&](const Result& r) {
    out = r;
    fired = true;
  });
  while (!fired && !s.queue.empty()) s.queue.step();
  EXPECT_TRUE(fired);
  return out;
}

TEST(DistIterated, GrantsUpToMThenRejects) {
  Rng rng(1);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 16, rng);
  const std::uint64_t M = 30;
  IteratedController ctrl(s.net, s.tree, M, /*W=*/1, /*U=*/64);
  const auto nodes = s.tree.alive_nodes();
  std::uint64_t granted = 0, rejected = 0;
  for (std::uint64_t i = 0; i < 3 * M; ++i) {
    const auto o =
        sync_submit(s, ctrl,
                    RequestSpec{RequestSpec::Type::kEvent,
                                nodes[i % nodes.size()]})
            .outcome;
    granted += o == Outcome::kGranted;
    rejected += o == Outcome::kRejected;
  }
  EXPECT_GE(granted, M - 1);
  EXPECT_LE(granted, M);
  EXPECT_EQ(granted + rejected, 3 * M);
  // (On shallow trees every creation level is 0, nothing strands, and a
  // single iteration can grant all of M; iteration-count behaviour is
  // covered by the deep-path centralized test.)
}

TEST(DistIterated, WZeroExactGrantCount) {
  Rng rng(2);
  Sim s;
  workload::build(s.tree, workload::Shape::kPath, 10, rng);
  const std::uint64_t M = 17;
  IteratedController ctrl(s.net, s.tree, M, /*W=*/0, /*U=*/32);
  const auto nodes = s.tree.alive_nodes();
  std::uint64_t granted = 0;
  for (std::uint64_t i = 0; i < 4 * M; ++i) {
    granted += sync_submit(s, ctrl,
                           RequestSpec{RequestSpec::Type::kEvent,
                                       nodes[i % nodes.size()]})
                   .granted();
  }
  EXPECT_EQ(granted, M);
}

TEST(DistIterated, ConcurrentRequestsAcrossRotation) {
  Rng rng(3);
  Sim s(sim::DelayKind::kUniform, 17);
  workload::build(s.tree, workload::Shape::kRandomAttach, 24, rng);
  const std::uint64_t M = 64;
  IteratedController ctrl(s.net, s.tree, M, /*W=*/1, /*U=*/256);
  const auto nodes = s.tree.alive_nodes();
  int answered = 0, granted = 0;
  for (int i = 0; i < 200; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())], [&](const Result& r) {
      ++answered;
      granted += r.granted();
    });
  }
  s.queue.run();
  EXPECT_EQ(answered, 200);
  EXPECT_GE(granted, static_cast<int>(M - 1));
  EXPECT_LE(granted, static_cast<int>(M));
}

TEST(DistIterated, ReplayedRequestWithDeadSubjectIsMoot) {
  // Bursts of events and birth-death churn: on these seeds a request
  // queued while an iteration drained has its subject removed by an
  // in-flight grant before the rotation replays it.
  for (const std::uint64_t seed : {89ull, 209ull}) {
    Rng rng(seed);
    Sim s(sim::DelayKind::kUniform, seed);
    workload::build(s.tree, workload::Shape::kRandomAttach, 60, rng);
    const std::uint64_t M = 1500;
    IteratedController ctrl(s.net, s.tree, M, /*W=*/1, /*U=*/64);
    workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath,
                                   Rng(seed + 1000));
    std::uint64_t submitted = 0, answered = 0, granted = 0, moot = 0;
    for (int round = 0; round < 60; ++round) {
      for (int i = 0; i < 30; ++i) {
        const RequestSpec spec =
            rng.chance(0.5)
                ? RequestSpec{RequestSpec::Type::kEvent,
                              workload::random_node(s.tree, rng)}
                : churn.next(s.tree);
        ++submitted;
        ctrl.submit(spec, [&](const Result& r) {
          ++answered;
          granted += r.granted();
          moot += r.outcome == Outcome::kMoot;
        });
      }
      ASSERT_NO_THROW(s.queue.run()) << "seed=" << seed;
    }
    EXPECT_EQ(answered, submitted) << "seed=" << seed;
    EXPECT_LE(granted, M) << "seed=" << seed;
    EXPECT_GT(moot, 0u) << "seed=" << seed;
  }
}

TEST(DistTerminating, NeverRejectsTerminatesInBand) {
  Rng rng(4);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 12, rng);
  const std::uint64_t M = 24, W = 6;
  TerminatingController ctrl(s.net, s.tree, M, W, /*U=*/64);
  const auto nodes = s.tree.alive_nodes();
  std::uint64_t granted = 0;
  for (std::uint64_t i = 0; i < 4 * M; ++i) {
    const auto o = sync_submit(s, ctrl,
                               RequestSpec{RequestSpec::Type::kEvent,
                                           nodes[i % nodes.size()]})
                       .outcome;
    EXPECT_NE(o, Outcome::kRejected);
    granted += o == Outcome::kGranted;
  }
  EXPECT_TRUE(ctrl.terminated());
  EXPECT_GE(granted, M - W);
  EXPECT_LE(granted, M);
}

TEST(DistTerminating, ExternalTerminate) {
  Sim s;
  TerminatingController ctrl(s.net, s.tree, 100, 50, 16);
  ASSERT_TRUE(
      sync_submit(s, ctrl, RequestSpec{RequestSpec::Type::kEvent, 0})
          .granted());
  bool done = false;
  ctrl.terminate([&] { done = true; });
  s.queue.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ctrl.terminated());
  EXPECT_EQ(
      sync_submit(s, ctrl, RequestSpec{RequestSpec::Type::kEvent, 0}).outcome,
      Outcome::kTerminated);
}

TEST(DistAdaptive, GrowthAcrossIterations) {
  Rng rng(5);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 8, rng);
  DistributedAdaptive ctrl(s.net, s.tree, /*M=*/300, /*W=*/1);
  std::uint64_t granted = 0;
  for (int i = 0; i < 200; ++i) {
    const auto nodes = s.tree.alive_nodes();
    granted += sync_submit(s, ctrl,
                           RequestSpec{RequestSpec::Type::kAddLeaf,
                                       nodes[rng.index(nodes.size())]})
                   .granted();
  }
  EXPECT_EQ(granted, 200u);
  EXPECT_EQ(s.tree.size(), 208u);
  EXPECT_GE(ctrl.iterations(), 2u);
  EXPECT_TRUE(tree::validate(s.tree).ok());
}

TEST(DistAdaptive, SafetyAndRejectAfterExhaustion) {
  Rng rng(6);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 10, rng);
  const std::uint64_t M = 40;
  DistributedAdaptive ctrl(s.net, s.tree, M, /*W=*/4);
  std::uint64_t granted = 0, rejected = 0;
  for (std::uint64_t i = 0; i < 4 * M; ++i) {
    const auto nodes = s.tree.alive_nodes();
    const NodeId u = nodes[rng.index(nodes.size())];
    const auto o =
        sync_submit(s, ctrl, RequestSpec{RequestSpec::Type::kAddLeaf, u})
            .outcome;
    granted += o == Outcome::kGranted;
    rejected += o == Outcome::kRejected;
  }
  EXPECT_LE(granted, M);
  EXPECT_GE(granted, M - 4);
  EXPECT_GT(rejected, 0u);
  EXPECT_TRUE(ctrl.done());
}

TEST(DistAdaptive, MixedChurnConcurrent) {
  Rng rng(7);
  Sim s(sim::DelayKind::kUniform, 23);
  workload::build(s.tree, workload::Shape::kCaterpillar, 30, rng);
  DistributedAdaptive ctrl(s.net, s.tree, /*M=*/500, /*W=*/8);
  int answered = 0;
  for (int burst = 0; burst < 30; ++burst) {
    for (int i = 0; i < 6; ++i) {
      const auto nodes = s.tree.alive_nodes();
      const NodeId u = nodes[rng.index(nodes.size())];
      RequestSpec spec;
      switch (rng.uniform(0, 2)) {
        case 0:
          spec = RequestSpec{RequestSpec::Type::kAddLeaf, u};
          break;
        case 1:
          spec = u != s.tree.root()
                     ? RequestSpec{RequestSpec::Type::kRemove, u}
                     : RequestSpec{RequestSpec::Type::kAddLeaf, u};
          break;
        default:
          spec = RequestSpec{RequestSpec::Type::kEvent, u};
      }
      ctrl.submit(spec, [&](const Result&) { ++answered; });
    }
    s.queue.run();
    ASSERT_TRUE(tree::validate(s.tree).ok()) << "burst " << burst;
  }
  EXPECT_EQ(answered, 180);
}

}  // namespace
}  // namespace dyncon::core
