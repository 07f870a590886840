// Tests for the dynamic compact routing scheme (§5.4, Obs. 5.5/Cor. 5.6):
// stretch-1 routes from labels alone, correctness under all churn models,
// label size tracking log n under shrinkage.

#include <gtest/gtest.h>

#include "apps/interval_labeling.hpp"
#include "sync_result.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon::apps {
namespace {

using core::Result;
using tree::DynamicTree;
using workload::ChurnGenerator;
using workload::ChurnModel;

/// Tree distance by walking to the LCA (ground truth).
std::uint64_t tree_distance(const DynamicTree& t, NodeId u, NodeId v) {
  // Climb the deeper side until depths match, then both.
  std::uint64_t du = t.depth(u), dv = t.depth(v);
  NodeId a = u, b = v;
  while (du > dv) {
    a = t.parent(a);
    --du;
  }
  while (dv > du) {
    b = t.parent(b);
    --dv;
  }
  std::uint64_t d = (t.depth(u) - du) + (t.depth(v) - dv);
  while (a != b) {
    a = t.parent(a);
    b = t.parent(b);
    d += 2;
  }
  return d;
}

void audit_routes(const DynamicTree& t, const IntervalLabeling& router,
                  Rng& rng, int samples) {
  const auto nodes = t.alive_nodes();
  if (nodes.size() < 2) return;
  for (int i = 0; i < samples; ++i) {
    const NodeId u = nodes[rng.index(nodes.size())];
    const NodeId v = nodes[rng.index(nodes.size())];
    if (u == v) continue;
    const auto hops = router.route(u, v);
    ASSERT_FALSE(hops.empty());
    ASSERT_EQ(hops.back(), v) << "route did not reach its target";
    // Stretch 1: the route length equals the tree distance.
    ASSERT_EQ(hops.size(), tree_distance(t, u, v))
        << "route " << u << "->" << v << " is not shortest";
  }
}

TEST(TreeRouting, RoutesOnStaticShapes) {
  for (auto shape : workload::all_shapes()) {
    Rng rng(1);
    DynamicTree t;
    workload::build(t, shape, 50, rng);
    IntervalLabeling router(t);
    audit_routes(t, router, rng, 200);
  }
}

TEST(TreeRouting, NextHopIsLocalDecision) {
  Rng rng(2);
  DynamicTree t;
  workload::build(t, workload::Shape::kBinary, 31, rng);
  IntervalLabeling router(t);
  const auto nodes = t.alive_nodes();
  // Hops toward an ancestor go up; toward a descendant go down the right
  // child; across go up first.
  const NodeId deep = nodes.back();
  EXPECT_EQ(router.next_hop(deep, t.root()), t.parent(deep));
  const NodeId child = t.children(t.root()).front();
  EXPECT_EQ(router.next_hop(t.root(), child), child);
}

void churn_and_audit(ChurnModel model, std::uint64_t seed) {
  Rng rng(seed);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 40, rng);
  IntervalLabeling router(t);
  ChurnGenerator churn(model, Rng(seed + 1));
  for (int i = 0; i < 250; ++i) {
    if (t.size() < 4) break;
    router.submit(churn.next(t), [](const Result&) {});
    if (i % 10 == 0) audit_routes(t, router, rng, 40);
  }
  audit_routes(t, router, rng, 100);
}

TEST(TreeRouting, GrowOnlyChurn) { churn_and_audit(ChurnModel::kGrowOnly, 3); }
TEST(TreeRouting, BirthDeathChurn) {
  churn_and_audit(ChurnModel::kBirthDeath, 4);
}
TEST(TreeRouting, InternalChurn) {
  churn_and_audit(ChurnModel::kInternalChurn, 5);
}
TEST(TreeRouting, FlashCrowdChurn) {
  churn_and_audit(ChurnModel::kFlashCrowd, 6);
}

TEST(TreeRouting, ShrinkTriggersRelabelAndKeepsBitsTight) {
  Rng rng(7);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 600, rng);
  IntervalLabeling router(t);
  ChurnGenerator churn(ChurnModel::kShrink, Rng(8));
  while (t.size() > 16) {
    const NodeId v = churn.next(t).subject;
    ASSERT_TRUE(sync_result([&](auto done) {
                  router.submit_remove(v, done);
                }).granted());
  }
  EXPECT_GT(router.relabels(), 1u);
  EXPECT_LE(router.label_bits(), ceil_log2(t.size()) + 10);
  audit_routes(t, router, rng, 100);
}

TEST(TreeRouting, DegenerateQueriesRejected) {
  DynamicTree t;
  IntervalLabeling router(t);
  EXPECT_THROW(router.next_hop(t.root(), t.root()), ContractError);
}

}  // namespace
}  // namespace dyncon::apps
