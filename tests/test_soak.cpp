// Soak tests: long randomized mixed runs with every invariant audited.
// These are the closest thing the controlled model has to failure
// injection — adversarial delays, adversarial shapes, dense concurrent
// churn, periodic full audits.

#include <gtest/gtest.h>

#include "apps/size_estimation.hpp"
#include "core/iterated.hpp"
#include "tree/validate.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon {
namespace {

using core::Outcome;
using core::RequestSpec;
using core::Result;

class Soak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Soak, DistributedPipelineLongRun) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  sim::EventQueue queue;
  sim::Network net(queue,
                   sim::make_delay(static_cast<sim::DelayKind>(seed % 4),
                                   seed * 31 + 1));
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 64, rng);

  const std::uint64_t M = 1200, W = 1;
  core::IteratedController ctrl(net, t, M, W, /*U=*/8192);
  workload::ChurnGenerator churn(workload::ChurnModel::kInternalChurn,
                                 Rng(seed * 7 + 5));

  std::uint64_t granted = 0, rejected = 0, moot = 0, answered = 0;
  std::uint64_t submitted = 0;
  const std::uint64_t kSteps = 2000;
  while (submitted < kSteps) {
    const std::uint64_t burst = rng.uniform(1, 12);
    for (std::uint64_t i = 0; i < burst && submitted < kSteps; ++i) {
      ++submitted;
      RequestSpec spec =
          rng.chance(0.3)
              ? RequestSpec{RequestSpec::Type::kEvent,
                            workload::random_node(t, rng)}
              : churn.next(t);
      ctrl.submit(spec, [&](const Result& r) {
        ++answered;
        granted += r.granted();
        rejected += r.outcome == Outcome::kRejected;
        moot += r.outcome == Outcome::kMoot;
      });
    }
    queue.run();
    const auto valid = tree::validate(t);
    ASSERT_TRUE(valid.ok()) << valid.detail;
    if (const auto* inner = ctrl.inner()) {
      ASSERT_EQ(inner->active_agents(), 0u);
      if (const auto* dom = inner->domains()) {
        ASSERT_EQ(dom->check_invariants(), "");
      }
      ASSERT_EQ(inner->permits_granted() + inner->unused_permits(),
                inner->params().M());
    }
  }
  EXPECT_EQ(answered, kSteps);
  EXPECT_EQ(answered, granted + rejected + moot);
  EXPECT_LE(ctrl.permits_granted(), M);
  if (rejected > 0) EXPECT_GE(ctrl.permits_granted(), M - W);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Soak,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(SoakApps, SizeEstimationSurvivesEverything) {
  // One long mixed run of the fully distributed estimator with the
  // invariant checked at every quiescent point.
  Rng rng(77);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kHeavyTail, 79));
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kCaterpillar, 96, rng);
  const double beta = 2.0;
  apps::SizeEstimation est(net, t, beta);
  workload::ChurnGenerator churn(workload::ChurnModel::kFlashCrowd, Rng(81));
  for (int burst = 0; burst < 150; ++burst) {
    const std::uint64_t width = rng.uniform(1, 6);
    for (std::uint64_t i = 0; i < width; ++i) {
      if (t.size() < 4) break;
      est.submit(churn.next(t), [](const Result&) {});
    }
    queue.run();
    const double n = static_cast<double>(t.size());
    const double e = static_cast<double>(est.estimate());
    ASSERT_GE(e * beta + 1e-9, n) << "burst " << burst;
    ASSERT_LE(e, beta * n + 1e-9) << "burst " << burst;
  }
  EXPECT_GE(est.iterations(), 3u);
}

}  // namespace
}  // namespace dyncon
