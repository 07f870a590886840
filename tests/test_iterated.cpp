// Unit tests for Observation 3.4 (iterated controller) and Observation 2.1
// (terminating transform), centralized versions.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/iterated.hpp"
#include "util/rng.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;

TEST(Iterated, GrantsExactlyUpToMThenRejects) {
  Rng rng(1);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 16, rng);
  const std::uint64_t M = 30;
  IteratedController ctrl(t, M, /*W=*/1, /*U=*/64);
  const auto nodes = t.alive_nodes();
  std::uint64_t granted = 0, rejected = 0;
  for (std::uint64_t i = 0; i < 3 * M; ++i) {
    const auto o = ctrl.request_event(nodes[i % nodes.size()]).outcome;
    granted += o == Outcome::kGranted;
    rejected += o == Outcome::kRejected;
  }
  EXPECT_LE(granted, M);
  EXPECT_GE(granted, M - 1);  // W = 1
  EXPECT_EQ(granted + rejected, 3 * M);
}

TEST(Iterated, WZeroGrantsExactlyM) {
  // The W = 0 pipeline must grant *exactly* M permits (trivial (1,0) tail).
  Rng rng(2);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 12, rng);
  const std::uint64_t M = 25;
  IteratedController ctrl(t, M, /*W=*/0, /*U=*/32);
  const auto nodes = t.alive_nodes();
  std::uint64_t granted = 0;
  for (std::uint64_t i = 0; i < 4 * M; ++i) {
    granted += ctrl.request_event(nodes[i % nodes.size()]).granted();
  }
  EXPECT_EQ(granted, M);
  EXPECT_EQ(ctrl.permits_granted(), M);
}

TEST(Iterated, IterationCountLogarithmic) {
  // Iterations only advance when an exhausting iteration leaves stranded
  // permits (L > 0), which needs a tree deep enough for creation levels
  // >= 1; a long path provides that.
  Rng rng(3);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 200, rng);
  const std::uint64_t M = 1u << 14;
  IteratedController ctrl(t, M, /*W=*/1, /*U=*/256);
  const auto nodes = t.alive_nodes();
  std::uint64_t i = 0;
  while (!ctrl.done()) {
    ctrl.request_event(nodes[i++ % nodes.size()]);
    ASSERT_LT(i, 4 * M);
  }
  // O(log(M / (W+1))) = O(14) iterations; allow generous slack.
  EXPECT_LE(ctrl.iterations(), 20u);
  EXPECT_GE(ctrl.iterations(), 2u);
  EXPECT_GE(ctrl.permits_granted(), M - 1);
}

TEST(Iterated, LargeWIsSingleIteration) {
  DynamicTree t;
  IteratedController ctrl(t, 100, /*W=*/50, /*U=*/16);
  for (int i = 0; i < 10; ++i) ctrl.request_event(t.root());
  EXPECT_EQ(ctrl.iterations(), 1u);
}

TEST(Iterated, TopologicalRequestsAcrossIterations) {
  Rng rng(4);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 8, rng);
  IteratedController ctrl(t, 200, /*W=*/1, /*U=*/512);
  std::uint64_t adds = 0, removes = 0;
  for (int i = 0; i < 300; ++i) {
    const auto nodes = t.alive_nodes();
    const NodeId u = nodes[rng.index(nodes.size())];
    if (rng.chance(0.5)) {
      adds += ctrl.request_add_leaf(u).granted();
    } else if (u != t.root()) {
      removes += ctrl.request_remove(u).granted();
    }
  }
  EXPECT_LE(adds + removes, 200u);
  EXPECT_GE(adds + removes, 199u);
  EXPECT_EQ(t.size(), 8 + adds - removes);
}

TEST(Iterated, SerialsSupportedWhenFinalFromTheStart) {
  DynamicTree t;
  IteratedController::Options opts;
  opts.serials = Interval(1, 10);
  IteratedController ctrl(t, 10, /*W=*/5, /*U=*/8, opts);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10; ++i) {
    const Result r = ctrl.request_event(t.root());
    ASSERT_TRUE(r.granted());
    ASSERT_TRUE(r.serial.has_value());
    seen.insert(*r.serial);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Iterated, SerialsRejectedWithMultipleIterations) {
  DynamicTree t;
  IteratedController::Options opts;
  opts.serials = Interval(1, 1000);
  EXPECT_THROW(IteratedController(t, 1000, 1, 8, opts), ContractError);
}

TEST(Terminating, NeverRejectsAndTerminates) {
  Rng rng(5);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 16, rng);
  const std::uint64_t M = 40, W = 10;
  TerminatingController ctrl(t, M, W, /*U=*/64);
  const auto nodes = t.alive_nodes();
  std::uint64_t granted = 0;
  for (std::uint64_t i = 0; i < 4 * M; ++i) {
    const auto o = ctrl.request_event(nodes[i % nodes.size()]).outcome;
    EXPECT_NE(o, Outcome::kRejected);
    granted += o == Outcome::kGranted;
  }
  EXPECT_TRUE(ctrl.terminated());
  // Observation 2.1: at termination, M - W <= granted <= M.
  EXPECT_GE(granted, M - W);
  EXPECT_LE(granted, M);
}

TEST(Terminating, TerminateNowFreezes) {
  DynamicTree t;
  TerminatingController ctrl(t, 100, 50, 16);
  ASSERT_TRUE(ctrl.request_event(t.root()).granted());
  const std::uint64_t cost_before = ctrl.cost();
  ctrl.terminate_now();
  EXPECT_TRUE(ctrl.terminated());
  EXPECT_GT(ctrl.cost(), cost_before);  // broadcast/upcast charged
  EXPECT_EQ(ctrl.request_event(t.root()).outcome, Outcome::kTerminated);
  EXPECT_EQ(ctrl.permits_granted(), 1u);
}

using BandCase = std::tuple<std::uint64_t /*M*/, std::uint64_t /*W*/>;

class TerminatingBand : public ::testing::TestWithParam<BandCase> {};

TEST_P(TerminatingBand, GrantCountLandsInBand) {
  const auto [M, W] = GetParam();
  Rng rng(M * 31 + W);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 24, rng);
  TerminatingController ctrl(t, M, W, /*U=*/1024);
  const auto nodes = t.alive_nodes();
  std::uint64_t granted = 0, i = 0;
  while (!ctrl.terminated() && i < 6 * M + 100) {
    granted += ctrl.request_event(nodes[i++ % nodes.size()]).granted();
  }
  ASSERT_TRUE(ctrl.terminated()) << "never terminated";
  EXPECT_GE(granted, M - W);
  EXPECT_LE(granted, M);
}

INSTANTIATE_TEST_SUITE_P(
    Bands, TerminatingBand,
    ::testing::Values(BandCase{1, 1}, BandCase{2, 1}, BandCase{10, 1},
                      BandCase{10, 5}, BandCase{64, 1}, BandCase{64, 16},
                      BandCase{64, 63}, BandCase{200, 50},
                      BandCase{333, 7}),
    [](const ::testing::TestParamInfo<BandCase>& info) {
      return "M" + std::to_string(std::get<0>(info.param)) + "_W" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Terminating, GrantsAllWhenDemandBelowM) {
  DynamicTree t;
  TerminatingController ctrl(t, 1000, 10, 8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(ctrl.request_event(t.root()).granted());
  }
  EXPECT_FALSE(ctrl.terminated());
}

}  // namespace
}  // namespace dyncon::core
