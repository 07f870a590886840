// Each wrapper and each §5 scheme runs over either controller stack: by
// Lemma 4.3 the distributed controller faithfully simulates the
// centralized one.  These tests run one serialized script through X(tree)
// and X(net, tree), draining a fixed-delay network after every request,
// and check after every request that both runs agree on everything but
// their message counts: verdicts, trees, permit and iteration counts,
// identities, heavy pointers, estimates, labels, and relabel and rebuild
// counts.

#include <gtest/gtest.h>

#include <optional>

#include "apps/heavy_child.hpp"
#include "apps/interval_labeling.hpp"
#include "apps/name_assignment.hpp"
#include "apps/nca_labeling.hpp"
#include "apps/size_estimation.hpp"
#include "core/iterated.hpp"
#include "sync_result.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon::apps {
namespace {

using core::RequestSpec;
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
  Result last;      ///< the latest step's verdict

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
    last = a;
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

/// The next request of a wrapper script: an event at a random node with
/// probability `event_share`, else the churn model's next change.
RequestSpec next_request(const DynamicTree& t, workload::ChurnGenerator& churn,
                         Rng& rng, double event_share) {
  if (rng.chance(event_share)) {
    return RequestSpec{RequestSpec::Type::kEvent,
                       workload::random_node(t, rng)};
  }
  return churn.next(t);
}

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

// ---- the Obs. 3.4 / Obs. 2.1 wrappers -----------------------------------

constexpr std::uint64_t kWrapperU = 96;

/// One (M, W) iterated controller per stack under `model` with 80% events
/// mixed in, run until both reject everything (then 20 rejections more).
void iterated_agrees(std::uint64_t M, std::uint64_t W, ChurnModel model,
                     std::uint64_t seed, std::uint64_t min_iterations) {
  SCOPED_TRACE(workload::churn_name(model));
  Pair p(40, seed);
  core::IteratedController c(p.central, M, W, kWrapperU);
  core::IteratedController s(p.net, p.simulated, M, W, kWrapperU);
  workload::ChurnGenerator churn(model, Rng(seed + 1));
  Rng rng(seed + 2);
  int rejects_after_done = 0;
  for (int i = 0; i < 12000 && rejects_after_done < 20; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const RequestSpec spec = next_request(p.central, churn, rng, 0.8);
    p.step(c, s, [&](auto& app, auto done) { app.submit(spec, done); });
    EXPECT_EQ(c.permits_granted(), s.permits_granted());
    EXPECT_EQ(c.iterations(), s.iterations());
    EXPECT_EQ(c.done(), s.done());
    if (c.done() && p.last.outcome == core::Outcome::kRejected) {
      ++rejects_after_done;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_TRUE(c.done());
  EXPECT_GE(c.iterations(), min_iterations);
  EXPECT_GE(c.permits_granted(), M - W);
  EXPECT_LE(c.permits_granted(), M);
}

TEST(StackAgreement, IteratedBirthDeath) {
  iterated_agrees(5000, 1, ChurnModel::kBirthDeath, 11, 3);
}
// W = 0: the final (M_i, 1) iteration signals exhaustion instead of
// rejecting and the (1,0) tail takes over, so exactly M permits go out.
TEST(StackAgreement, IteratedWZeroGrantsExactlyM) {
  iterated_agrees(4000, 0, ChurnModel::kBirthDeath, 12, 3);
}
TEST(StackAgreement, IteratedInternalChurn) {
  iterated_agrees(2500, 10, ChurnModel::kInternalChurn, 13, 2);
}

TEST(StackAgreement, TerminatingStopsAtTheSameRequest) {
  Pair p(40, 14);
  const std::uint64_t M = 600;
  const std::uint64_t W = 40;
  core::TerminatingController c(p.central, M, W, kWrapperU);
  core::TerminatingController s(p.net, p.simulated, M, W, kWrapperU);
  workload::ChurnGenerator churn(ChurnModel::kBirthDeath, Rng(15));
  Rng rng(16);
  int terminated_at = -1;
  for (int i = 0; i < 2000 && terminated_at < 0; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const RequestSpec spec = next_request(p.central, churn, rng, 0.8);
    p.step(c, s, [&](auto& app, auto done) { app.submit(spec, done); });
    EXPECT_EQ(c.permits_granted(), s.permits_granted());
    EXPECT_EQ(c.terminated(), s.terminated());
    if (p.last.outcome == core::Outcome::kTerminated) terminated_at = i;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(terminated_at, 0);
  EXPECT_GE(c.permits_granted(), M - W);
  EXPECT_LE(c.permits_granted(), M);
}

// ---- §5.1 size estimation and §5.2 name assignment ----------------------

void size_estimation_agrees(ChurnModel model, std::uint64_t seed) {
  SCOPED_TRACE(workload::churn_name(model));
  Pair p(40, seed);
  SizeEstimation c(p.central, 2.0);
  SizeEstimation s(p.net, p.simulated, 2.0);
  workload::ChurnGenerator churn(model, Rng(seed + 1));
  for (int i = 0; i < 300 && p.central.size() >= 4; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const RequestSpec spec = churn.next(p.central);
    p.step(c, s, [&](auto& app, auto done) { app.submit(spec, done); });
    EXPECT_EQ(c.estimate(), s.estimate());
    EXPECT_EQ(c.iterations(), s.iterations());
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(p.granted, 40);
  EXPECT_GT(c.iterations(), 2u);
}

TEST(StackAgreement, SizeEstimationBirthDeath) {
  size_estimation_agrees(ChurnModel::kBirthDeath, 17);
}
TEST(StackAgreement, SizeEstimationInternalChurn) {
  size_estimation_agrees(ChurnModel::kInternalChurn, 18);
}

void names_agree(ChurnModel model, std::uint64_t seed) {
  SCOPED_TRACE(workload::churn_name(model));
  Pair p(40, seed);
  NameAssignment c(p.central);
  NameAssignment s(p.net, p.simulated);
  workload::ChurnGenerator churn(model, Rng(seed + 1));
  for (int i = 0; i < 250 && p.central.size() >= 4; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const RequestSpec spec = churn.next(p.central);
    p.step(c, s, [&](auto& app, auto done) { app.submit(spec, done); });
    EXPECT_EQ(c.iterations(), s.iterations());
    for (NodeId v : p.central.alive_nodes()) {
      EXPECT_EQ(c.id_of(v), s.id_of(v)) << "node " << v;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(p.granted, 40);
  EXPECT_GT(c.iterations(), 2u);
}

TEST(StackAgreement, NameAssignmentGrowOnly) {
  names_agree(ChurnModel::kGrowOnly, 19);
}
TEST(StackAgreement, NameAssignmentBirthDeath) {
  names_agree(ChurnModel::kBirthDeath, 20);
}
TEST(StackAgreement, NameAssignmentInternalChurn) {
  names_agree(ChurnModel::kInternalChurn, 21);
}
TEST(StackAgreement, NameAssignmentFlashCrowd) {
  names_agree(ChurnModel::kFlashCrowd, 22);
}

}  // namespace
}  // namespace dyncon::apps
