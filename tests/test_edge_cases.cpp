// Edge cases and boundary regimes of the controller machinery:
// degenerate trees, extreme (M, W, U) combinations, phi > 1 static
// packages, single-node networks, the psi ablation knob.

#include <gtest/gtest.h>

#include "core/centralized_controller.hpp"
#include "core/distributed_controller.hpp"
#include "core/iterated.hpp"
#include "util/rng.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;

TEST(EdgeCases, SingleNodeNetwork) {
  DynamicTree t;
  CentralizedController ctrl(t, Params(5, 1, 1));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ctrl.request_event(t.root()).granted());
  }
  EXPECT_EQ(ctrl.request_event(t.root()).outcome, Outcome::kRejected);
  EXPECT_EQ(ctrl.cost(), 1u);  // only the reject wave ever moved anything
}

TEST(EdgeCases, MEqualsOne) {
  Rng rng(1);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 5, rng);
  CentralizedController ctrl(t, Params(1, 1, 8));
  const NodeId deep = t.alive_nodes().back();
  EXPECT_TRUE(ctrl.request_event(deep).granted());
  EXPECT_EQ(ctrl.request_event(deep).outcome, Outcome::kRejected);
  EXPECT_EQ(ctrl.permits_granted(), 1u);
}

TEST(EdgeCases, HugeWMakesPhiLarge) {
  // W >= 2U gives phi = floor(W/2U) > 1: static packages hold several
  // permits and co-located requests are served for free.
  Rng rng(2);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 8, rng);
  const std::uint64_t U = 16, W = 160;  // phi = 5
  CentralizedController ctrl(t, Params(100, W, U));
  EXPECT_EQ(ctrl.params().phi(), 5u);
  const NodeId deep = t.alive_nodes().back();
  ASSERT_TRUE(ctrl.request_event(deep).granted());
  const std::uint64_t cost_first = ctrl.cost();
  // The next phi-1 requests at the same node hit the static package:
  // zero additional moves.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ctrl.request_event(deep).granted());
  }
  EXPECT_EQ(ctrl.cost(), cost_first);
}

TEST(EdgeCases, MuchLargerMThanU) {
  // M far beyond the polynomial regime still behaves (the paper's
  // M = n0^O(log^2 n0) assumption affects bounds, not correctness).
  Rng rng(3);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 8, rng);
  CentralizedController ctrl(t, Params(1u << 30, 1u << 20, 16));
  const auto nodes = t.alive_nodes();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(ctrl.request_event(nodes[rng.index(nodes.size())]).granted());
  }
  EXPECT_EQ(ctrl.permits_granted(), 200u);
}

TEST(EdgeCases, RequestsOnlyAtRoot) {
  DynamicTree t;
  Rng rng(4);
  workload::build(t, workload::Shape::kPath, 50, rng);
  CentralizedController ctrl(t, Params(64, 32, 128));
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(ctrl.request_event(t.root()).granted());
  }
  // Root requests never walk: cost stays zero until exhaustion.
  EXPECT_EQ(ctrl.cost(), 0u);
}

TEST(EdgeCases, DeleteEveryNodeButRoot) {
  Rng rng(5);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 40, rng);
  IteratedController ctrl(t, 100, 50, 128);
  // Delete from the leaves inward until only the root remains.
  while (t.size() > 1) {
    const auto nodes = t.alive_nodes();
    ASSERT_TRUE(ctrl.request_remove(nodes.back()).granted());
  }
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.alive(t.root()));
}

TEST(EdgeCases, AlternatingInsertRemoveSameSpot) {
  // Pathological churn concentrated on one edge: insert an internal node,
  // remove it, repeat.  Exercises domain Case 4/5 bookkeeping heavily.
  Rng rng(6);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 20, rng);
  CentralizedController ctrl(t, Params(1000, 500, 2048));
  const NodeId anchor = t.alive_nodes()[10];
  for (int i = 0; i < 100; ++i) {
    const Result mid = ctrl.request_add_internal_above(anchor);
    ASSERT_TRUE(mid.granted());
    ASSERT_TRUE(ctrl.request_remove(mid.new_node).granted());
    ASSERT_NE(ctrl.domains(), nullptr);
    ASSERT_EQ(ctrl.domains()->check_invariants(), "") << "cycle " << i;
  }
  EXPECT_EQ(t.size(), 20u);
}

TEST(EdgeCases, PsiScaleRoundTrips) {
  const Params base(100, 50, 64);
  EXPECT_EQ(base.with_psi_scale(1, 1).psi(), base.psi());
  const Params half = base.with_psi_scale(1, 2);
  EXPECT_EQ(half.psi() % 4, 0u);
  EXPECT_LT(half.psi(), base.psi());
  const Params tiny = base.with_psi_scale(1, 1000000);
  EXPECT_EQ(tiny.psi(), 4u);  // clamped to the smallest legal scale
  EXPECT_THROW(base.with_psi_scale(0, 1), ContractError);
}

TEST(EdgeCases, ScaledPsiStillSafeAndLive) {
  // The ablation knob voids the W analysis, never safety; liveness at
  // W = M/2 survives a 4x shrink at this scale.
  Rng rng(7);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 200, rng);
  const std::uint64_t M = 128;
  CentralizedController ctrl(t, Params(M, M / 2, 512).with_psi_scale(1, 4));
  const auto nodes = t.alive_nodes();
  std::uint64_t granted = 0;
  for (std::uint64_t i = 0; i < 4 * M; ++i) {
    granted += ctrl.request_event(nodes[rng.index(nodes.size())]).granted();
  }
  EXPECT_LE(granted, M);
  EXPECT_GE(granted, M / 2);
}

TEST(EdgeCases, DistributedSingleNode) {
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kFixed, 1));
  DynamicTree t;
  DistributedController ctrl(net, t, Params(3, 1, 1));
  int granted = 0, rejected = 0;
  for (int i = 0; i < 6; ++i) {
    ctrl.submit_event(t.root(), [&](const Result& r) {
      granted += r.granted();
      rejected += r.outcome == Outcome::kRejected;
    });
  }
  queue.run();
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(ctrl.messages_used(), 0u);  // nothing ever crossed an edge
}

TEST(EdgeCases, DistributedStarBurst) {
  // A star maximizes root contention: every agent needs the root's lock
  // region immediately.
  Rng rng(8);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, 9));
  DynamicTree t;
  workload::build(t, workload::Shape::kStar, 64, rng);
  DistributedController ctrl(net, t, Params(63, 31, 128));
  int answered = 0;
  for (NodeId v : t.alive_nodes()) {
    if (v == t.root()) continue;
    ctrl.submit_event(v, [&](const Result&) { ++answered; });
  }
  queue.run();
  EXPECT_EQ(answered, 63);
  EXPECT_EQ(ctrl.active_agents(), 0u);
}

TEST(EdgeCases, RemoveChainRootward) {
  // Remove an entire path from the bottom node's perspective: every
  // removal is an internal-node removal that re-parents the survivor.
  Rng rng(9);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 30, rng);
  IteratedController ctrl(t, 64, 32, 64);
  const NodeId bottom = t.alive_nodes().back();
  while (t.depth(bottom) > 1) {
    const NodeId mid = t.parent(bottom);
    ASSERT_TRUE(ctrl.request_remove(mid).granted());
  }
  EXPECT_EQ(t.parent(bottom), t.root());
}

}  // namespace
}  // namespace dyncon::core
