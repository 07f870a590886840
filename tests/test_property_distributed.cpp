// Parameterized property sweep for the distributed controller: across
// delay adversaries, tree shapes and seeds, concurrent request bursts must
// all complete, respect safety/liveness, keep the tree valid, drain all
// agents, and leave the domain invariants intact at quiescent points.

#include <gtest/gtest.h>

#include <tuple>

#include "core/distributed_controller.hpp"
#include "core/iterated.hpp"
#include "tree/validate.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;
using workload::ChurnModel;
using workload::Shape;

using Case = std::tuple<sim::DelayKind, Shape, std::uint64_t /*seed*/>;

class DistributedProperty : public ::testing::TestWithParam<Case> {};

TEST_P(DistributedProperty, ConcurrentChurnBursts) {
  const auto [kind, shape, seed] = GetParam();
  Rng rng(seed);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(kind, seed * 31 + 7));
  DynamicTree t;
  workload::build(t, shape, 24, rng);

  const std::uint64_t M = 150, W = 30;
  DistributedController ctrl(net, t, Params(M, W, 1024));
  workload::ChurnGenerator churn(ChurnModel::kInternalChurn,
                                 Rng(seed * 13 + 3));
  const auto stats = workload::run_churn_async(
      ctrl, queue, t, churn, /*steps=*/200, /*burst=*/10,
      /*event_fraction=*/0.25, rng);

  EXPECT_EQ(stats.requests, 200u);
  EXPECT_LE(ctrl.permits_granted(), M);
  if (stats.rejected > 0) {
    EXPECT_GE(ctrl.permits_granted(), M - W);
  }
  EXPECT_EQ(ctrl.active_agents(), 0u);
  const auto valid = tree::validate(t);
  EXPECT_TRUE(valid.ok()) << valid.detail;
  ASSERT_NE(ctrl.domains(), nullptr);
  EXPECT_EQ(ctrl.domains()->check_invariants(), "");
  // Conservation: every permit is granted, parked, or still at the root.
  EXPECT_EQ(ctrl.permits_granted() + ctrl.unused_permits(), M);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedProperty,
    ::testing::Combine(
        ::testing::Values(sim::DelayKind::kFixed, sim::DelayKind::kUniform,
                          sim::DelayKind::kHeavyTail,
                          sim::DelayKind::kBiased,
                          sim::DelayKind::kReorder),
        ::testing::Values(Shape::kPath, Shape::kStar, Shape::kRandomAttach,
                          Shape::kCaterpillar),
        ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(sim::delay_kind_name(std::get<0>(info.param))) +
             "_" + workload::shape_name(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

/// Deep concurrent contention on a single path: the worst case for the
/// locking discipline (every agent wants the same ancestors).
class PathContention : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathContention, AllRequestsAnswered) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, seed));
  DynamicTree t;
  workload::build(t, Shape::kPath, 80, rng);
  const std::uint64_t M = 100;
  DistributedController ctrl(net, t, Params(M, 50, 512));
  const auto nodes = t.alive_nodes();
  int answered = 0, granted = 0;
  for (int i = 0; i < 90; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())], [&](const Result& r) {
      ++answered;
      granted += r.granted();
    });
  }
  queue.run();
  EXPECT_EQ(answered, 90);
  EXPECT_EQ(granted, 90);  // M = 100 > 90: everything must be granted
  EXPECT_EQ(ctrl.active_agents(), 0u);
  EXPECT_EQ(ctrl.domains()->check_invariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathContention,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

/// The iterated pipeline under concurrency: rotations mid-burst.
class IteratedConcurrency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IteratedConcurrency, ExactAccounting) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, seed));
  DynamicTree t;
  workload::build(t, Shape::kRandomAttach, 20, rng);
  const std::uint64_t M = 48;
  IteratedController ctrl(net, t, M, /*W=*/1, /*U=*/128);
  const auto nodes = t.alive_nodes();
  int granted = 0, rejected = 0;
  for (int i = 0; i < 150; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())], [&](const Result& r) {
      granted += r.granted();
      rejected += r.outcome == Outcome::kRejected;
    });
    if (i % 10 == 9) queue.run();
  }
  queue.run();
  EXPECT_EQ(granted + rejected, 150);
  EXPECT_GE(granted, static_cast<int>(M - 1));
  EXPECT_LE(granted, static_cast<int>(M));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IteratedConcurrency,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

}  // namespace
}  // namespace dyncon::core
