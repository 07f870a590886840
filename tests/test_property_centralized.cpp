// Parameterized property sweep for the centralized controller stack:
// for every (tree shape x churn model x seed) combination, the full
// (M,W)-controller pipeline must maintain
//
//   * safety (grants <= M),
//   * liveness (>= M - W grants once anything is rejected),
//   * permit conservation inside each base iteration,
//   * the Claim 3.1 domain invariants after every step,
//   * structural validity of the tree.

#include <gtest/gtest.h>

#include <tuple>

#include "core/iterated.hpp"
#include "tree/validate.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;
using workload::ChurnModel;
using workload::Shape;

using Case = std::tuple<Shape, ChurnModel, std::uint64_t /*seed*/>;

class ControllerProperty : public ::testing::TestWithParam<Case> {};

TEST_P(ControllerProperty, SafetyLivenessDomainsUnderChurn) {
  const auto [shape, model, seed] = GetParam();
  Rng rng(seed);
  DynamicTree t;
  workload::build(t, shape, 48, rng);

  const std::uint64_t M = 120, W = 12;
  IteratedController ctrl(t, M, W, /*U=*/1024);
  workload::ChurnGenerator churn(model, Rng(seed * 7 + 1));

  std::uint64_t granted = 0, rejected = 0;
  for (int i = 0; i < 360; ++i) {
    if (t.size() < 4) break;
    const auto spec = churn.next(t);
    Result r;
    switch (spec.type) {
      case RequestSpec::Type::kAddLeaf:
        r = ctrl.request_add_leaf(spec.subject);
        break;
      case RequestSpec::Type::kAddInternal:
        r = ctrl.request_add_internal_above(spec.subject);
        break;
      case RequestSpec::Type::kRemove:
        r = ctrl.request_remove(spec.subject);
        break;
      case RequestSpec::Type::kEvent:
        r = ctrl.request_event(spec.subject);
        break;
    }
    granted += r.granted();
    rejected += r.outcome == Outcome::kRejected;

    ASSERT_LE(ctrl.permits_granted(), M);
    const auto valid = tree::validate(t);
    ASSERT_TRUE(valid.ok()) << valid.detail << " at step " << i;
    if (ctrl.inner() != nullptr) {
      // Permit conservation within the live base iteration.
      ASSERT_EQ(ctrl.inner()->permits_granted() +
                    ctrl.inner()->unused_permits(),
                ctrl.inner()->params().M());
      if (const auto* dom = ctrl.inner()->domains()) {
        const std::string err = dom->check_invariants();
        ASSERT_EQ(err, "") << "step " << i;
      }
    }
  }
  if (rejected > 0) {
    EXPECT_GE(granted, M - W);  // liveness
  }
  EXPECT_EQ(granted, ctrl.permits_granted());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ControllerProperty,
    ::testing::Combine(
        ::testing::Values(Shape::kPath, Shape::kStar, Shape::kBinary,
                          Shape::kRandomAttach, Shape::kCaterpillar,
                          Shape::kBroom),
        ::testing::Values(ChurnModel::kGrowOnly, ChurnModel::kBirthDeath,
                          ChurnModel::kInternalChurn,
                          ChurnModel::kFlashCrowd),
        ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(workload::shape_name(std::get<0>(info.param))) +
             "_" + workload::churn_name(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

/// W-sweep: the waste parameter's contract holds across magnitudes.
class WasteProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WasteProperty, LivenessBandRespected) {
  const std::uint64_t W = GetParam();
  Rng rng(W + 5);
  DynamicTree t;
  workload::build(t, Shape::kRandomAttach, 32, rng);
  const std::uint64_t M = 200;
  IteratedController ctrl(t, M, W, /*U=*/512);
  const auto nodes = t.alive_nodes();
  std::uint64_t granted = 0;
  bool saw_reject = false;
  for (std::uint64_t i = 0; i < 4 * M; ++i) {
    const auto o = ctrl.request_event(nodes[i % nodes.size()]).outcome;
    granted += o == Outcome::kGranted;
    saw_reject |= o == Outcome::kRejected;
  }
  EXPECT_TRUE(saw_reject);
  EXPECT_LE(granted, M);
  EXPECT_GE(granted, M - W);
}

INSTANTIATE_TEST_SUITE_P(WSweep, WasteProperty,
                         ::testing::Values(0u, 1u, 2u, 5u, 20u, 100u, 199u));

}  // namespace
}  // namespace dyncon::core
