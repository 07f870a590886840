// Opt-in heavy soak tier: larger networks, longer runs, all invariants.
// Skipped unless DYNCON_HEAVY_TESTS=1 is set (run it before releases or in
// a nightly job); each case is a few seconds, not milliseconds.

#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/size_estimation.hpp"
#include "core/iterated.hpp"
#include "tree/validate.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon {
namespace {

bool heavy_enabled() {
  const char* v = std::getenv("DYNCON_HEAVY_TESTS");
  return v != nullptr && v[0] == '1';
}

#define DYNCON_HEAVY_OR_SKIP()                                     \
  if (!heavy_enabled()) {                                          \
    GTEST_SKIP() << "set DYNCON_HEAVY_TESTS=1 to run this tier";   \
  }

TEST(HeavySoak, DistributedPipelineTenThousandRequests) {
  DYNCON_HEAVY_OR_SKIP();
  Rng rng(1);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, 3));
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 512, rng);
  const std::uint64_t M = 6000, W = 1;
  core::IteratedController ctrl(net, t, M, W, /*U=*/65536);
  workload::ChurnGenerator churn(workload::ChurnModel::kInternalChurn,
                                 Rng(5));
  std::uint64_t answered = 0, granted = 0, rejected = 0, moot = 0;
  const std::uint64_t kSteps = 10000;
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    const core::RequestSpec spec =
        rng.chance(0.3)
            ? core::RequestSpec{core::RequestSpec::Type::kEvent,
                                workload::random_node(t, rng)}
            : churn.next(t);
    ctrl.submit(spec, [&](const core::Result& r) {
      ++answered;
      granted += r.granted();
      rejected += r.outcome == core::Outcome::kRejected;
      moot += r.outcome == core::Outcome::kMoot;
    });
    if (i % 16 == 15) queue.run();
    if (i % 1000 == 999) {
      queue.run();
      const auto valid = tree::validate(t);
      ASSERT_TRUE(valid.ok()) << valid.detail;
      if (const auto* inner = ctrl.inner()) {
        ASSERT_EQ(inner->active_agents(), 0u);
        if (const auto* dom = inner->domains()) {
          ASSERT_EQ(dom->check_invariants(), "");
        }
      }
    }
  }
  queue.run();
  EXPECT_EQ(answered, kSteps);
  EXPECT_EQ(answered, granted + rejected + moot);
  EXPECT_LE(ctrl.permits_granted(), M);
  if (rejected > 0) EXPECT_GE(ctrl.permits_granted(), M - W);
}

TEST(HeavySoak, SizeEstimationFourThousandNodes) {
  DYNCON_HEAVY_OR_SKIP();
  Rng rng(7);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kHeavyTail, 9));
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 4096, rng);
  const double beta = 2.0;
  apps::SizeEstimation est(net, t, beta);
  workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath, Rng(11));
  for (int i = 0; i < 6000; ++i) {
    est.submit(churn.next(t), [](const core::Result&) {});
    if (i % 12 == 11) {
      queue.run();
      const double n = static_cast<double>(t.size());
      const double e = static_cast<double>(est.estimate());
      ASSERT_GE(e * beta + 1e-9, n) << "step " << i;
      ASSERT_LE(e, beta * n + 1e-9) << "step " << i;
    }
  }
  queue.run();
  EXPECT_GE(est.iterations(), 2u);
}

TEST(HeavySoak, CentralizedDeepPathEightThousand) {
  DYNCON_HEAVY_OR_SKIP();
  Rng rng(13);
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kPath, 8192, rng);
  core::IteratedController ctrl(t, 8192, 4096, 16384);
  const auto nodes = t.alive_nodes();
  std::uint64_t granted = 0;
  for (int i = 0; i < 8192; ++i) {
    granted += ctrl.request_event(nodes[rng.index(nodes.size())]).granted();
  }
  // W = M/2 lets up to W permits strand; nearly everything is granted.
  EXPECT_GE(granted, 8192u - 4096u);
  EXPECT_GE(granted, 8000u);  // in practice stranding is tiny
  // Obs 3.4 constant check at scale.
  const double U = 2.0 * 8192;
  const double bound = 8.0 * U * 14 * 14;  // log2(16384) = 14
  EXPECT_LT(static_cast<double>(ctrl.cost()), bound);
}

}  // namespace
}  // namespace dyncon
