// EXP1 — Centralized move complexity scaling (Lemma 3.3, Observation 3.4).
//
// Paper claim: the iterated (M,W)-controller has move complexity
// O(U log^2 U log(M/(W+1))).  We flood trees of doubling size with M = n
// requests (W = M/2, so the log factor is 1) and report the measured move
// complexity, the normalized constant cost / (U log^2 U), and the empirical
// log-log slope.  The shape to observe: the normalized constant stays flat
// (or falls) while the trivial-controller yardstick in EXP3 grows linearly.
//
// The (shape, n) grid is a parallel sweep: every point is an independent
// seeded run, so the table is byte-identical at any --jobs value.

#include <cmath>

#include "bench_util.hpp"
#include "core/iterated.hpp"
#include "util/stats.hpp"
#include "workload/shapes.hpp"

using namespace dyncon;
using namespace dyncon::core;
using namespace dyncon::bench;

namespace {

std::uint64_t flood(workload::Shape shape, std::uint64_t n,
                    std::uint64_t seed) {
  Rng rng(seed);
  tree::DynamicTree t;
  workload::build(t, shape, n, rng);
  IteratedController ctrl(t, n, n / 2, 2 * n);
  const auto nodes = t.alive_nodes();
  for (std::uint64_t i = 0; i < n; ++i) {
    ctrl.request_event(nodes[rng.index(nodes.size())]);
  }
  return ctrl.cost();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run("exp1", argc, argv);
  const std::uint64_t seed = run.base_seed(7);
  run.param("seed", seed);
  run.param("n_max", std::uint64_t{8192});
  banner("EXP1: centralized (M,W)-controller move complexity scaling");
  std::printf("claim: O(U log^2 U log(M/(W+1))); here W = M/2 so the log "
              "factor is 1\n");

  const std::vector<workload::Shape> shapes = {
      workload::Shape::kPath, workload::Shape::kRandomAttach,
      workload::Shape::kCaterpillar};
  const std::vector<std::uint64_t> sizes = {256, 512, 1024, 2048, 4096,
                                            8192};

  // One flattened (shape, n) grid; results land in per-point slots and the
  // tables print after the sweep, in point order.
  std::vector<std::uint64_t> cost(shapes.size() * sizes.size());
  parallel_sweep(run, cost.size(), [&](std::size_t i) {
    cost[i] = flood(shapes[i / sizes.size()], sizes[i % sizes.size()], seed);
  });

  for (std::size_t s = 0; s < shapes.size(); ++s) {
    subhead(std::string("shape = ") + workload::shape_name(shapes[s]));
    Table tab({"n", "moves", "moves/(U log^2 U)", "moves/n"});
    std::vector<double> xs, ys;
    for (std::size_t j = 0; j < sizes.size(); ++j) {
      const std::uint64_t n = sizes[j];
      const std::uint64_t c = cost[s * sizes.size() + j];
      const double U = 2.0 * static_cast<double>(n);
      const double norm =
          static_cast<double>(c) / (U * std::log2(U) * std::log2(U));
      tab.row({num(n), num(c), fp(norm, 4),
               fp(static_cast<double>(c) / static_cast<double>(n), 1)});
      xs.push_back(static_cast<double>(n));
      ys.push_back(static_cast<double>(c));
    }
    tab.print();
    std::printf("empirical log-log slope: %.3f (1.0 = linear, 2.0 = "
                "quadratic; polylog factors push it slightly above 1)\n",
                loglog_slope(xs, ys));
  }
  return 0;
}
