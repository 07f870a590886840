// Re-entrant inline completion on the centralized stack.
//
// A closed-loop client submits its next request from the completion
// callback of the previous one.  Over the centralized stack that callback
// runs before submit returns, so the next submit re-enters the wrapper
// while the previous one is still on the call stack — possibly while a
// rotation waits to tear the finished iteration down.  The wrappers defer
// that teardown until the outermost call returns; these tests check that a
// closed loop sees exactly what a plain loop sees: the same verdicts, the
// same permit, iteration and cost counts.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "apps/name_assignment.hpp"
#include "apps/size_estimation.hpp"
#include "core/iterated.hpp"
#include "sync_result.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon {
namespace {

using core::RequestSpec;
using core::Result;
using tree::DynamicTree;
using workload::ChurnModel;

/// Submits `steps` requests, each from the completion callback of the one
/// before; `next()` proposes each request when it is submitted.
template <typename App, typename Next>
std::vector<Result> closed_loop(App& app, int steps, Next next) {
  std::vector<Result> verdicts;
  int submitted = 0;
  std::function<void()> submit_next = [&] {
    if (submitted == steps) return;
    ++submitted;
    app.submit(next(), [&](const Result& r) {
      verdicts.push_back(r);
      submit_next();
    });
  };
  submit_next();
  EXPECT_EQ(verdicts.size(), static_cast<std::size_t>(steps));
  return verdicts;
}

/// The same requests, one at a time: each is submitted after the previous
/// submit has returned.
template <typename App, typename Next>
std::vector<Result> plain_loop(App& app, int steps, Next next) {
  std::vector<Result> verdicts;
  for (int i = 0; i < steps; ++i) {
    verdicts.push_back(
        sync_result([&](auto done) { app.submit(next(), done); }));
  }
  return verdicts;
}

void expect_same_verdicts(const std::vector<Result>& a,
                          const std::vector<Result>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << "request " << i;
    EXPECT_EQ(a[i].new_node, b[i].new_node) << "request " << i;
    EXPECT_EQ(a[i].serial, b[i].serial) << "request " << i;
  }
}

/// One client's view of its tree: events at random nodes mixed into churn.
struct Client {
  DynamicTree tree;
  workload::ChurnGenerator churn;
  Rng rng;
  double event_share;

  Client(std::uint64_t seed, ChurnModel model, double events,
         std::uint64_t nodes = 40)
      : churn(model, Rng(seed + 1)), rng(seed + 2), event_share(events) {
    Rng build(seed);
    workload::build(tree, workload::Shape::kRandomAttach, nodes, build);
  }

  RequestSpec next() {
    if (rng.chance(event_share)) {
      return RequestSpec{RequestSpec::Type::kEvent,
                         workload::random_node(tree, rng)};
    }
    return churn.next(tree);
  }
};

TEST(ClosedLoop, IteratedAcrossRotationsAndTheWZeroTail) {
  // W = 0: every iteration signals exhaustion, the final (M_i, 1) one
  // included, and each ends in a rotation; the requests spend all M
  // permits.  A small U makes the first iteration's packages big enough
  // to leave a second iteration behind.
  constexpr std::uint64_t kM = 600;
  constexpr std::uint64_t kU = 32;
  constexpr int kSteps = 800;
  Client loop(3, ChurnModel::kBirthDeath, 0.9, 20);
  Client plain(3, ChurnModel::kBirthDeath, 0.9, 20);
  core::IteratedController a(loop.tree, kM, /*W=*/0, kU);
  core::IteratedController b(plain.tree, kM, /*W=*/0, kU);
  const auto va = closed_loop(a, kSteps, [&] { return loop.next(); });
  const auto vb = plain_loop(b, kSteps, [&] { return plain.next(); });
  expect_same_verdicts(va, vb);
  EXPECT_EQ(a.permits_granted(), b.permits_granted());
  EXPECT_EQ(a.iterations(), b.iterations());
  EXPECT_EQ(a.cost(), b.cost());
  EXPECT_EQ(loop.tree.alive_nodes(), plain.tree.alive_nodes());
  EXPECT_GE(a.iterations(), 2u);
  EXPECT_TRUE(a.done());
  EXPECT_EQ(a.permits_granted(), kM);
}

TEST(ClosedLoop, SizeEstimationReplaysAcrossIterations) {
  constexpr int kSteps = 200;
  Client loop(5, ChurnModel::kBirthDeath, 0.0);
  Client plain(5, ChurnModel::kBirthDeath, 0.0);
  apps::SizeEstimation a(loop.tree, 2.0);
  apps::SizeEstimation b(plain.tree, 2.0);
  const auto va = closed_loop(a, kSteps, [&] { return loop.next(); });
  const auto vb = plain_loop(b, kSteps, [&] { return plain.next(); });
  expect_same_verdicts(va, vb);
  EXPECT_EQ(a.estimate(), b.estimate());
  EXPECT_EQ(a.iterations(), b.iterations());
  EXPECT_EQ(a.messages(), b.messages());
  EXPECT_EQ(loop.tree.alive_nodes(), plain.tree.alive_nodes());
  EXPECT_GE(a.iterations(), 3u);
}

TEST(ClosedLoop, NameAssignmentReplaysAcrossIterations) {
  constexpr int kSteps = 200;
  Client loop(7, ChurnModel::kInternalChurn, 0.0);
  Client plain(7, ChurnModel::kInternalChurn, 0.0);
  apps::NameAssignment a(loop.tree);
  apps::NameAssignment b(plain.tree);
  const auto va = closed_loop(a, kSteps, [&] { return loop.next(); });
  const auto vb = plain_loop(b, kSteps, [&] { return plain.next(); });
  expect_same_verdicts(va, vb);
  EXPECT_EQ(a.iterations(), b.iterations());
  EXPECT_EQ(a.messages(), b.messages());
  ASSERT_EQ(loop.tree.alive_nodes(), plain.tree.alive_nodes());
  for (NodeId v : loop.tree.alive_nodes()) {
    EXPECT_EQ(a.id_of(v), b.id_of(v)) << "node " << v;
  }
  EXPECT_TRUE(a.ids_unique());
  EXPECT_GE(a.iterations(), 3u);
}

TEST(ClosedLoop, SynchronousRequestInsideACallbackIsAContractError) {
  DynamicTree t;
  Rng rng(9);
  workload::build(t, workload::Shape::kRandomAttach, 16, rng);
  core::IteratedController ctrl(t, 50, 1, 64);
  bool threw = false;
  ctrl.submit_event(t.root(), [&](const Result&) {
    try {
      (void)ctrl.request_event(t.root());
    } catch (const ContractError&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
}

TEST(ClosedLoop, SynchronousRequestOnTheSimulatorIsAContractError) {
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kFixed, 1));
  DynamicTree t;
  Rng rng(10);
  workload::build(t, workload::Shape::kRandomAttach, 16, rng);
  core::IteratedController ctrl(net, t, 50, 1, 64);
  EXPECT_THROW((void)ctrl.request_event(t.root()), ContractError);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace dyncon
