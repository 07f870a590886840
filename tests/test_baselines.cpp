// Unit tests for the baselines: the trivial root-trip controller and the
// AAPS bin-hierarchy reimplementation.

#include <gtest/gtest.h>

#include <vector>

#include "core/aaps_controller.hpp"
#include "core/iterated.hpp"
#include "core/trivial_controller.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;

TEST(Trivial, GrantsThenRejects) {
  DynamicTree t;
  TrivialController ctrl(t, 3);
  EXPECT_TRUE(ctrl.request_event(t.root()).granted());
  EXPECT_TRUE(ctrl.request_event(t.root()).granted());
  EXPECT_TRUE(ctrl.request_event(t.root()).granted());
  EXPECT_EQ(ctrl.request_event(t.root()).outcome, Outcome::kRejected);
  EXPECT_EQ(ctrl.permits_granted(), 3u);
  EXPECT_EQ(ctrl.rejects_delivered(), 1u);
}

TEST(Trivial, CostIsRoundTripDepth) {
  Rng rng(1);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 11, rng);
  TrivialController ctrl(t, 100);
  const NodeId deep = t.alive_nodes().back();
  ASSERT_EQ(t.depth(deep), 10u);
  ctrl.request_event(deep);
  EXPECT_EQ(ctrl.cost(), 20u);
  ctrl.request_event(deep);
  EXPECT_EQ(ctrl.cost(), 40u);  // no amortization, ever
}

TEST(Trivial, SupportsFullDynamicModel) {
  DynamicTree t;
  TrivialController ctrl(t, 100);
  const auto leaf = ctrl.request_add_leaf(t.root());
  ASSERT_TRUE(leaf.granted());
  const auto mid = ctrl.request_add_internal_above(leaf.new_node);
  ASSERT_TRUE(mid.granted());
  EXPECT_TRUE(ctrl.request_remove(mid.new_node).granted());
  EXPECT_TRUE(ctrl.request_remove(leaf.new_node).granted());
  EXPECT_EQ(t.size(), 1u);
}

TEST(AAPS, GrantsWithinBudget) {
  Rng rng(2);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 32, rng);
  const std::uint64_t M = 50;
  AAPSController ctrl(t, M, M / 2, /*U=*/128);
  const auto nodes = t.alive_nodes();
  std::uint64_t granted = 0;
  for (std::uint64_t i = 0; i < 3 * M; ++i) {
    granted += ctrl.request_event(nodes[i % nodes.size()]).granted();
  }
  EXPECT_LE(granted, M);
  EXPECT_GE(granted, M / 4);  // the bin hierarchy strands bounded waste
}

TEST(AAPS, GrowOnlyModelEnforced) {
  DynamicTree t;
  AAPSController ctrl(t, 10, 5, 16);
  const auto leaf = ctrl.request_add_leaf(t.root());
  ASSERT_TRUE(leaf.granted());
  EXPECT_THROW(ctrl.request_remove(leaf.new_node), ContractError);
  EXPECT_THROW(ctrl.request_add_internal_above(leaf.new_node),
               ContractError);
}

TEST(AAPS, LeafGrowthWorks) {
  // The single-shot bin hierarchy strands permits in bins off the demand
  // paths, so give it ample headroom over the 150 grants it must serve.
  Rng rng(3);
  DynamicTree t;
  AAPSController ctrl(t, 2000, 1000, 256);
  std::uint64_t added = 0;
  for (int i = 0; i < 150; ++i) {
    const auto nodes = t.alive_nodes();
    added += ctrl.request_add_leaf(nodes[rng.index(nodes.size())]).granted();
  }
  EXPECT_EQ(added, 150u);
  EXPECT_EQ(t.size(), 151u);
}

TEST(AAPS, AmortizesOnRepeatedDeepRequests) {
  // The point of the bin hierarchy: repeated requests at the same deep node
  // cost far less than the trivial controller's 2*depth each.
  Rng rng(4);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 257, rng);
  const NodeId deep = t.alive_nodes().back();

  AAPSController aaps(t, 512, 256, 512);
  TrivialController trivial(t, 512);
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE(aaps.request_event(deep).granted());
    ASSERT_TRUE(trivial.request_event(deep).granted());
  }
  EXPECT_LT(aaps.cost(), trivial.cost() / 4);
}

TEST(AAPS, SameAsymptoticsAsOurs) {
  // §1.4 claims our message complexity is never asymptotically more than
  // AAPS's.  Constants differ (this AAPS reconstruction keeps level-0 bins
  // at every node, so its constant is small; our psi constant is large —
  // see EXPERIMENTS.md EXP3): compare empirical log-log slopes, not
  // absolutes.
  std::vector<double> ns, cost_aaps, cost_ours;
  for (std::uint64_t n : {513u, 1025u, 2049u}) {
    Rng rng(5);
    DynamicTree t;
    workload::build(t, workload::Shape::kPath, n, rng);
    const auto nodes = t.alive_nodes();
    // The single-shot bin hierarchy strands up to ~log(U) permits per node
    // along the demand path, so both controllers get generous budgets; the
    // comparison is about message growth, not permit efficiency.
    AAPSController aaps(t, 16 * n, 8 * n, 2 * n);
    IteratedController ours(t, 16 * n, 8 * n, 2 * n);
    Rng pick(5);
    for (std::uint64_t i = 0; i < n; ++i) {
      const NodeId u = nodes[pick.index(nodes.size())];
      ASSERT_TRUE(aaps.request_event(u).granted());
      ASSERT_TRUE(ours.request_event(u).granted());
    }
    ns.push_back(static_cast<double>(n));
    cost_aaps.push_back(static_cast<double>(aaps.cost()));
    cost_ours.push_back(static_cast<double>(ours.cost()));
  }
  const double sa = loglog_slope(ns, cost_aaps);
  const double so = loglog_slope(ns, cost_ours);
  EXPECT_LT(so, sa + 0.4) << "ours grows asymptotically faster than AAPS";
  EXPECT_LT(cost_ours.back(), 40 * cost_aaps.back())
      << "constant factor blew past the documented gap";
}

}  // namespace
}  // namespace dyncon::core
