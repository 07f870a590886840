// EXP4 — The waste trade-off (Observation 3.4): move complexity carries a
// log(M/(W+1)) factor.
//
// Fixed deep path (n = 2048), demand 3M with M = n: sweep W from M/2 down
// to 0 and report measured cost, the iteration count (the wrapper runs
// ~log(M/(W+1)) iterations), and cost normalized by the claimed factor.
// Also ablates the iterated wrapper against the single-shot base controller
// (Lemma 3.3's U*(M/W) bound) at small W, where single-shot explodes.

#include <cmath>

#include "bench_util.hpp"
#include "core/centralized_controller.hpp"
#include "core/iterated.hpp"
#include "workload/shapes.hpp"

using namespace dyncon;
using namespace dyncon::core;
using namespace dyncon::bench;

namespace {

constexpr std::uint64_t kN = 2048;

std::pair<std::uint64_t, std::uint64_t> run_iterated(std::uint64_t W,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kPath, kN, rng);
  IteratedController::Options opts;
  opts.track_domains = false;
  IteratedController ctrl(t, kN, W, 2 * kN, opts);
  const auto nodes = t.alive_nodes();
  for (std::uint64_t i = 0; i < 3 * kN; ++i) {
    ctrl.request_event(nodes[rng.index(nodes.size())]);
  }
  return {ctrl.cost(), ctrl.iterations()};
}

std::uint64_t run_single_shot(std::uint64_t W, std::uint64_t seed) {
  Rng rng(seed);
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kPath, kN, rng);
  CentralizedController::Options opts;
  opts.track_domains = false;
  CentralizedController ctrl(t, Params(kN, W, 2 * kN), opts);
  const auto nodes = t.alive_nodes();
  for (std::uint64_t i = 0; i < 3 * kN; ++i) {
    ctrl.request_event(nodes[rng.index(nodes.size())]);
  }
  return ctrl.cost();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run("exp4", argc, argv);
  const std::uint64_t seed = run.base_seed(29);
  banner("EXP4: the log(M/(W+1)) waste factor (Obs. 3.4)");
  std::printf("n = M = %llu on a path; 3M requests\n",
              static_cast<unsigned long long>(kN));

  // Each W point runs the iterated and (when defined) single-shot
  // controllers independently — a parallel sweep with deferred printing.
  const std::vector<std::uint64_t> waste = {
      kN / 2, kN / 8, kN / 32, kN / 128, 4, 1, 0};
  struct Point {
    std::uint64_t cost = 0, iters = 0;
    std::string single;
  };
  std::vector<Point> points(waste.size());
  parallel_sweep(run, points.size(), [&](std::size_t i) {
    const std::uint64_t W = waste[i];
    const auto [cost, iters] = run_iterated(W, seed);
    // Single-shot base controller requires W >= 1 and pays U*M/W directly.
    points[i] = {cost, iters,
                 W >= 1 ? num(run_single_shot(W, seed))
                        : std::string("(n/a)")};
  });

  Table tab({"W", "iterations", "cost (iterated)", "cost/log2(M/(W+1))",
             "cost (single-shot)"});
  for (std::size_t i = 0; i < waste.size(); ++i) {
    const std::uint64_t W = waste[i];
    const double logf =
        std::max(1.0, std::log2(static_cast<double>(kN) /
                                static_cast<double>(W + 1)));
    tab.row({num(W), num(points[i].iters), num(points[i].cost),
             fp(static_cast<double>(points[i].cost) / logf, 0),
             points[i].single});
  }
  tab.print();
  std::printf("\nshape check: iterations grow ~log(M/(W+1)); iterated cost "
              "grows mildly as W shrinks while the single-shot Lemma 3.3 "
              "controller degrades like M/W.\n");
  return 0;
}
