// Tests for the subtree estimator (Lemma 5.3) and the heavy-child
// decomposition (Theorem 5.4).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <unordered_map>

#include "apps/heavy_child.hpp"
#include "apps/subtree_estimator.hpp"
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

TEST(SubtreeEstimator, BaselineIsExactAtIterationStart) {
  Rng rng(1);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 60, rng);
  SubtreeEstimator est(t, 2.0);
  // Before any change: w~ = w0 = exact subtree size = super-weight.
  for (NodeId v : t.alive_nodes()) {
    EXPECT_EQ(est.estimate(v), est.true_super_weight(v));
  }
  EXPECT_EQ(est.estimate(t.root()), 60u);
}

TEST(SubtreeEstimator, SuperWeightCountsEverything) {
  Rng rng(2);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 10, rng);
  SubtreeEstimator est(t, 2.0);
  const NodeId mid = t.alive_nodes()[5];
  const std::uint64_t before = est.true_super_weight(mid);
  // Add below mid: super-weight grows.
  const NodeId last = t.alive_nodes().back();
  const Result leaf =
      sync_result([&](auto done) { est.submit_add_leaf(last, done); });
  ASSERT_TRUE(leaf.granted());
  EXPECT_EQ(est.true_super_weight(mid), before + 1);
  // Remove it again: super-weight does NOT shrink (ever-existed counting).
  ASSERT_TRUE(sync_result([&](auto done) {
                est.submit_remove(leaf.new_node, done);
              }).granted());
  EXPECT_EQ(est.true_super_weight(mid), before + 1);
}

TEST(SubtreeEstimator, EstimateNeverBelowConsumedChanges) {
  // w~(u) >= SW(u) for nodes whose subtree absorbed changes: permits that
  // granted changes below u all passed through u.
  Rng rng(3);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 80, rng);
  SubtreeEstimator est(t, 2.0);
  ChurnGenerator churn(ChurnModel::kBirthDeath, Rng(4));
  for (int i = 0; i < 300; ++i) {
    est.submit(churn.next(t), [](const Result&) {});
  }
  // Root sees everything: its estimate must cover its true super-weight
  // within the protocol's approximation (and is never absurdly large).
  const double sw = static_cast<double>(est.true_super_weight(t.root()));
  const double e = static_cast<double>(est.estimate(t.root()));
  EXPECT_GE(e * 2.0 + 1e-9, sw);
  EXPECT_LE(e, 2.0 * sw + 1e-9);
}

TEST(SubtreeEstimator, ApproximationOnLargeSubtrees) {
  // Audit the beta-approximation on subtrees that are not tiny (small
  // subtrees can be off by parked-package constants; the heavy-child
  // argument only needs the multiplicative bound where it matters).
  Rng rng(5);
  DynamicTree t;
  workload::build(t, workload::Shape::kBinary, 127, rng);
  const double beta = 2.0;
  SubtreeEstimator est(t, beta);
  ChurnGenerator churn(ChurnModel::kGrowOnly, Rng(6));
  for (int i = 0; i < 250; ++i) {
    est.submit(churn.next(t), [](const Result&) {});
  }
  const double slack = 2.0;  // integer effects on top of beta
  for (NodeId v : t.alive_nodes()) {
    const double sw = static_cast<double>(est.true_super_weight(v));
    if (sw < 16) continue;
    const double e = static_cast<double>(est.estimate(v));
    EXPECT_GE(e * beta * slack, sw) << "node " << v;
    EXPECT_LE(e, beta * slack * sw) << "node " << v;
  }
}

TEST(SubtreeEstimator, OneUpdatePerNewNode) {
  // A granted new node reports its first estimate exactly once, leaf or
  // internal, on either stack; an add-leaf at a parent already holding the
  // permits (the root) updates nothing at the parent.
  for (const bool simulated : {false, true}) {
    SCOPED_TRACE(simulated ? "simulator" : "centralized");
    sim::EventQueue queue;
    sim::Network net(queue, sim::make_delay(sim::DelayKind::kFixed, 1));
    Rng rng(15);
    DynamicTree t;
    workload::build(t, workload::Shape::kRandomAttach, 32, rng);
    std::unordered_map<NodeId, int> calls;
    SubtreeEstimator::Options opts;
    opts.on_estimate_update = [&calls](NodeId v) { ++calls[v]; };
    auto est = simulated
                   ? std::make_unique<SubtreeEstimator>(net, t, 2.0, opts)
                   : std::make_unique<SubtreeEstimator>(t, 2.0, opts);
    const auto run = [&](const core::RequestSpec& spec) {
      calls.clear();
      std::optional<Result> out;
      est->submit(spec, [&out](const Result& r) { out = r; });
      queue.run();
      EXPECT_TRUE(out.has_value() && out->granted());
      return out.value_or(Result{}).new_node;
    };
    const NodeId leaf =
        run({core::RequestSpec::Type::kAddLeaf, t.root()});
    EXPECT_EQ(calls[leaf], 1);
    EXPECT_EQ(calls[t.root()], 0);
    for (int i = 0; i < 12; ++i) {
      const NodeId v = workload::random_node(t, rng);
      if (i % 2 == 0) {
        EXPECT_EQ(calls[run({core::RequestSpec::Type::kAddLeaf, v})], 1);
      } else if (v != t.root()) {
        EXPECT_EQ(calls[run({core::RequestSpec::Type::kAddInternal, v})], 1);
      }
    }
  }
}

TEST(HeavyChild, PointersExistAndValid) {
  Rng rng(7);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 50, rng);
  HeavyChild hc(t);
  for (NodeId v : t.alive_nodes()) {
    if (t.is_leaf(v)) {
      EXPECT_EQ(hc.heavy(v), kNoNode);
    } else {
      const NodeId h = hc.heavy(v);
      ASSERT_NE(h, kNoNode);
      EXPECT_EQ(t.parent(h), v);
    }
  }
}

TEST(HeavyChild, PathHasZeroLightAncestors) {
  Rng rng(8);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 64, rng);
  HeavyChild hc(t);
  // On a path every internal node has exactly one child = the heavy one.
  EXPECT_EQ(hc.max_light_ancestors(), 0u);
}

TEST(HeavyChild, BalancedTreeLogLightAncestors) {
  Rng rng(9);
  DynamicTree t;
  workload::build(t, workload::Shape::kBinary, 255, rng);
  HeavyChild hc(t);
  // Complete binary tree: light depth is exactly its log-depth-ish bound.
  EXPECT_LE(hc.max_light_ancestors(), 8u);
}

std::uint64_t log_bound(std::uint64_t n) {
  return 4 * (ceil_log2(n < 2 ? 2 : n) + 1);
}

void churn_and_audit(ChurnModel model, std::uint64_t n0, int steps,
                     std::uint64_t seed) {
  Rng rng(seed);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, n0, rng);
  HeavyChild hc(t);
  ChurnGenerator churn(model, Rng(seed + 1));
  for (int i = 0; i < steps; ++i) {
    if (t.size() < 4) break;
    hc.submit(churn.next(t), [](const Result&) {});
    if (i % 25 == 0) {
      ASSERT_LE(hc.max_light_ancestors(), log_bound(t.size()))
          << workload::churn_name(model) << " step " << i;
    }
  }
  EXPECT_LE(hc.max_light_ancestors(), log_bound(t.size()));
}

TEST(HeavyChild, GrowOnlyStaysLogarithmic) {
  churn_and_audit(ChurnModel::kGrowOnly, 32, 400, 10);
}

TEST(HeavyChild, BirthDeathStaysLogarithmic) {
  churn_and_audit(ChurnModel::kBirthDeath, 64, 400, 11);
}

TEST(HeavyChild, InternalChurnStaysLogarithmic) {
  churn_and_audit(ChurnModel::kInternalChurn, 64, 400, 12);
}

TEST(HeavyChild, MessagesAtMostDoubleEstimator) {
  // "These extra messages may only increase the total number of messages
  // by a factor of two" — reports piggyback on estimate updates.
  Rng rng(13);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 64, rng);
  HeavyChild hc(t);
  ChurnGenerator churn(ChurnModel::kGrowOnly, Rng(14));
  for (int i = 0; i < 200; ++i) hc.submit(churn.next(t), [](const Result&) {});
  EXPECT_LE(hc.messages(), 3 * hc.estimator().messages());
}

}  // namespace
}  // namespace dyncon::apps
