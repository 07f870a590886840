// Each §5.3–§5.4 scheme is one class over either controller stack: by
// Lemma 4.3 the distributed controller faithfully simulates the
// centralized one.  These tests run one serialized script through X(tree)
// and X(net, tree), draining a fixed-delay network after every request,
// and check after every request that both runs agree on everything but
// their message counts: verdicts, trees, heavy pointers, estimates,
// labels, and relabel and rebuild counts.

#include <gtest/gtest.h>

#include <optional>

#include "apps/heavy_child.hpp"
#include "apps/interval_labeling.hpp"
#include "apps/nca_labeling.hpp"
#include "sync_result.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon::apps {
namespace {

using core::Result;
using tree::DynamicTree;
using workload::ChurnModel;

/// The same starting tree twice: one per stack.
struct Pair {
  DynamicTree central;
  sim::EventQueue queue;
  sim::Network net;
  DynamicTree simulated;
  int granted = 0;  ///< lets a test reject a vacuous script

  Pair(std::uint64_t n, std::uint64_t seed)
      : net(queue, sim::make_delay(sim::DelayKind::kFixed, 1)) {
    Rng a(seed);
    Rng b(seed);
    workload::build(central, workload::Shape::kRandomAttach, n, a);
    workload::build(simulated, workload::Shape::kRandomAttach, n, b);
  }

  /// Runs one request on both stacks (`submit(app, done)`), drains the
  /// network, and checks the verdicts and the trees agree.
  template <typename App, typename Submit>
  void step(App& c, App& s, Submit submit) {
    const Result a = sync_result([&](auto done) { submit(c, done); });
    std::optional<Result> b;
    submit(s, [&b](const Result& r) { b = r; });
    queue.run();
    ASSERT_TRUE(b.has_value()) << "request still pending after the drain";
    EXPECT_EQ(a.outcome, b->outcome);
    EXPECT_EQ(a.new_node, b->new_node);
    granted += a.granted();
    ASSERT_EQ(central.alive_nodes(), simulated.alive_nodes());
    for (NodeId v : central.alive_nodes()) {
      ASSERT_EQ(central.parent(v), simulated.parent(v)) << "node " << v;
    }
  }
};

void heavy_child_agrees(ChurnModel model, std::uint64_t seed) {
  SCOPED_TRACE(workload::churn_name(model));
  Pair p(48, seed);
  HeavyChild c(p.central);
  HeavyChild s(p.net, p.simulated);
  workload::ChurnGenerator churn(model, Rng(seed + 1));
  for (int i = 0; i < 200 && p.central.size() >= 4; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const auto spec = churn.next(p.central);
    p.step(c, s, [&](HeavyChild& app, auto done) { app.submit(spec, done); });
    EXPECT_EQ(c.estimator().size_estimate(), s.estimator().size_estimate());
    EXPECT_EQ(c.estimator().iterations(), s.estimator().iterations());
    for (NodeId v : p.central.alive_nodes()) {
      EXPECT_EQ(c.heavy(v), s.heavy(v)) << "node " << v;
      EXPECT_EQ(c.estimator().estimate(v), s.estimator().estimate(v))
          << "node " << v;
      EXPECT_EQ(c.estimator().true_super_weight(v),
                s.estimator().true_super_weight(v))
          << "node " << v;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(p.granted, 40);
  EXPECT_GT(c.estimator().iterations(), 1u);
}

TEST(StackAgreement, HeavyChildGrowOnly) {
  heavy_child_agrees(ChurnModel::kGrowOnly, 1);
}
TEST(StackAgreement, HeavyChildBirthDeath) {
  heavy_child_agrees(ChurnModel::kBirthDeath, 2);
}
TEST(StackAgreement, HeavyChildInternalChurn) {
  heavy_child_agrees(ChurnModel::kInternalChurn, 3);
}
TEST(StackAgreement, HeavyChildFlashCrowd) {
  heavy_child_agrees(ChurnModel::kFlashCrowd, 4);
}

void interval_labels_agree(ChurnModel model, std::uint64_t seed) {
  SCOPED_TRACE(workload::churn_name(model));
  Pair p(40, seed);
  IntervalLabeling c(p.central);
  IntervalLabeling s(p.net, p.simulated);
  workload::ChurnGenerator churn(model, Rng(seed + 1));
  for (int i = 0; i < 250 && p.central.size() >= 4; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const auto spec = churn.next(p.central);
    p.step(c, s,
           [&](IntervalLabeling& app, auto done) { app.submit(spec, done); });
    EXPECT_EQ(c.relabels(), s.relabels());
    for (NodeId v : p.central.alive_nodes()) {
      EXPECT_EQ(c.label(v).pre, s.label(v).pre) << "node " << v;
      EXPECT_EQ(c.label(v).post, s.label(v).post) << "node " << v;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(p.granted, 40);
  EXPECT_GT(c.relabels(), 1u);
}

TEST(StackAgreement, IntervalLabelingGrowOnly) {
  interval_labels_agree(ChurnModel::kGrowOnly, 5);
}
TEST(StackAgreement, IntervalLabelingBirthDeath) {
  interval_labels_agree(ChurnModel::kBirthDeath, 6);
}
TEST(StackAgreement, IntervalLabelingInternalChurn) {
  interval_labels_agree(ChurnModel::kInternalChurn, 7);
}
TEST(StackAgreement, IntervalLabelingFlashCrowd) {
  interval_labels_agree(ChurnModel::kFlashCrowd, 8);
}

TEST(StackAgreement, NcaLabelingLeafChurn) {
  Pair p(40, 9);
  NcaLabeling c(p.central);
  NcaLabeling s(p.net, p.simulated);
  Rng pick(10);
  for (int i = 0; i < 300; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    if (pick.chance(0.55)) {
      const NodeId parent = workload::random_node(p.central, pick);
      p.step(c, s, [&](NcaLabeling& app, auto done) {
        app.submit_add_leaf(parent, done);
      });
    } else {
      const auto nodes = p.central.alive_nodes();
      const NodeId v = nodes[pick.index(nodes.size())];
      if (v == p.central.root() || !p.central.is_leaf(v)) continue;
      p.step(c, s, [&](NcaLabeling& app, auto done) {
        app.submit_remove_leaf(v, done);
      });
    }
    EXPECT_EQ(c.rebuilds(), s.rebuilds());
    for (NodeId v : p.central.alive_nodes()) {
      EXPECT_EQ(c.decomposition().heavy(v), s.decomposition().heavy(v))
          << "node " << v;
      EXPECT_EQ(c.label(v), s.label(v)) << "node " << v;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(p.granted, 40);
  EXPECT_GT(c.rebuilds(), 1u);
}

}  // namespace
}  // namespace dyncon::apps
