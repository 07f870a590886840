// Empirical complexity-bound checks: the paper's asymptotic claims, tested
// as measured scaling shapes (the bench suite reproduces them as full
// experiment tables; these tests pin the qualitative facts).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "apps/size_estimation.hpp"
#include "core/distributed_controller.hpp"
#include "core/iterated.hpp"
#include "core/trivial_controller.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;

/// Flood a path tree of n nodes with M = n events; return total cost.
template <typename MakeCtrl>
std::uint64_t flood_cost(std::uint64_t n, MakeCtrl make, std::uint64_t seed) {
  Rng rng(seed);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, n, rng);
  auto ctrl = make(t, n);
  const auto nodes = t.alive_nodes();
  for (std::uint64_t i = 0; i < n; ++i) {
    ctrl->request_event(nodes[rng.index(nodes.size())]);
  }
  return ctrl->cost();
}

TEST(Complexity, ControllerNearLinearTrivialQuadratic) {
  // Lemma 3.3/Obs 3.4: ours is O(U log^2 U); trivial is Omega(n*M) = n^2
  // here.  At laptop scales our psi constant keeps the measured slope a
  // little above 1.5, but it must sit clearly below the trivial
  // controller's ~2 and the absolute gap must widen with n.
  std::vector<double> ns, ours, trivial;
  for (std::uint64_t n : {512u, 1024u, 2048u, 4096u}) {
    ns.push_back(static_cast<double>(n));
    ours.push_back(static_cast<double>(flood_cost(
        n,
        [](DynamicTree& t, std::uint64_t m) {
          return std::make_unique<IteratedController>(t, m, m / 2, 2 * m);
        },
        7)));
    trivial.push_back(static_cast<double>(flood_cost(
        n,
        [](DynamicTree& t, std::uint64_t m) {
          return std::make_unique<TrivialController>(t, m);
        },
        7)));
  }
  const double slope_ours = loglog_slope(ns, ours);
  const double slope_trivial = loglog_slope(ns, trivial);
  EXPECT_LT(slope_ours, slope_trivial - 0.25);
  EXPECT_GT(slope_trivial, 1.8) << "trivial should be ~n^2";
  EXPECT_LT(ours.back(), trivial.back() / 4);
  // The advantage grows with n.
  EXPECT_GT(trivial.back() / ours.back(), trivial.front() / ours.front());
}

TEST(Complexity, MoveComplexityWithinPaperConstant) {
  // Obs. 3.4: O(U log^2 U log(M/(W+1))).  Check the measured cost against
  // the formula with a fixed constant across sizes.
  for (std::uint64_t n : {128u, 256u, 512u}) {
    const std::uint64_t cost = flood_cost(
        n,
        [](DynamicTree& t, std::uint64_t m) {
          return std::make_unique<IteratedController>(t, m, m / 2, 2 * m);
        },
        11);
    const double U = static_cast<double>(2 * n);
    const double bound = 8.0 * U * std::log2(U) * std::log2(U);
    EXPECT_LT(static_cast<double>(cost), bound) << "n=" << n;
  }
}

TEST(Complexity, DistributedMessagesTrackCentralizedMoves) {
  // Lemma 4.5: the agent traverses at most ~4x the centralized move
  // distance, plus control/reject terms.
  for (std::uint64_t n : {64u, 128u, 256u}) {
    Rng rng(13);
    DynamicTree td;
    workload::build(td, workload::Shape::kPath, n, rng);
    sim::EventQueue queue;
    sim::Network net(queue, sim::make_delay(sim::DelayKind::kFixed, 1));
    const Params params(n, n / 2, 2 * n);
    DistributedController dist(net, td, params);
    DistributedSyncFacade facade(queue, dist);

    Rng rng2(13);
    DynamicTree tc;
    workload::build(tc, workload::Shape::kPath, n, rng2);
    CentralizedController cent(tc, params);

    Rng pick(17);
    const auto nodes = td.alive_nodes();
    for (std::uint64_t i = 0; i < n; ++i) {
      const NodeId u = nodes[pick.index(nodes.size())];
      facade.request_event(u);
      cent.request_event(u);
    }
    EXPECT_LE(dist.messages_used(), 6 * cent.cost() + 8 * n) << "n=" << n;
    EXPECT_GE(dist.messages_used(), cent.cost()) << "n=" << n;
  }
}

TEST(Complexity, SizeEstimationAmortizedPolylog) {
  // Thm 5.1: O(n0 log^2 n0 + sum_j log^2 n_j) messages; per-change
  // amortized cost must shrink relative to n as n grows.
  std::vector<double> ns, per_change;
  for (std::uint64_t n : {128u, 256u, 512u}) {
    Rng rng(19);
    DynamicTree t;
    workload::build(t, workload::Shape::kRandomAttach, n, rng);
    apps::SizeEstimation est(t, 2.0);
    workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath,
                                   Rng(23));
    const std::uint64_t steps = 4 * n;
    for (std::uint64_t i = 0; i < steps; ++i) {
      const auto spec = churn.next(t);
      if (spec.type == RequestSpec::Type::kAddLeaf) {
        est.request_add_leaf(spec.subject);
      } else {
        est.request_remove(spec.subject);
      }
    }
    ns.push_back(static_cast<double>(n));
    per_change.push_back(static_cast<double>(est.messages()) /
                         static_cast<double>(steps));
  }
  // Amortized per-change cost is polylog: it must grow far slower than n.
  const double slope = loglog_slope(ns, per_change);
  EXPECT_LT(slope, 0.7) << "per-change cost should be ~log^2 n";
  // And in absolute terms stay below c * log^2 n.
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const double lg = std::log2(ns[i]);
    EXPECT_LT(per_change[i], 6.0 * lg * lg) << "n=" << ns[i];
  }
}

TEST(Complexity, WasteFactorLogarithmic) {
  // Obs 3.4: cost carries a log(M/(W+1)) factor.  The factor only
  // materializes once exhausting iterations strand permits (deep trees,
  // more demand than M), so drive 3M requests on a 2048-path.
  const std::uint64_t n = 2048;
  const auto run = [&](std::uint64_t W) {
    Rng rng(29);
    DynamicTree t;
    workload::build(t, workload::Shape::kPath, n, rng);
    IteratedController ctrl(t, n, W, 2 * n);
    const auto nodes = t.alive_nodes();
    for (std::uint64_t i = 0; i < 3 * n; ++i) {
      ctrl.request_event(nodes[rng.index(nodes.size())]);
    }
    return std::pair{ctrl.cost(), ctrl.iterations()};
  };
  const auto [big_w_cost, big_w_iters] = run(n / 2);
  const auto [small_w_cost, small_w_iters] = run(1);
  EXPECT_GT(small_w_iters, big_w_iters);  // tighter waste iterates more
  EXPECT_GT(small_w_cost, big_w_cost);    // ...and costs more
  EXPECT_LT(small_w_cost, 40 * big_w_cost);  // but only logarithmically
}

}  // namespace
}  // namespace dyncon::core
