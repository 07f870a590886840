// EXP8 — Heavy-child decomposition maintenance (Theorem 5.4): at all times
// every node has O(log n) light ancestors; maintaining the pointers at most
// doubles the subtree-estimator's message count.
//
// Sweep churn models (one independent seeded run per model, in parallel);
// report the maximum light-ancestor count against log2(n) and the
// messaging overhead factor.

#include <cmath>

#include "apps/heavy_child.hpp"
#include "bench_util.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

using namespace dyncon;
using namespace dyncon::bench;

namespace {

struct Point {
  std::uint64_t n_final = 0;
  std::uint64_t worst_light = 0;
  std::uint64_t messages = 0;
  double overhead = 0.0;
};

Point measure(workload::ChurnModel model, std::uint64_t n0,
              std::uint64_t steps, std::uint64_t seed) {
  Rng rng(seed);
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, n0, rng);
  apps::HeavyChild hc(t);
  workload::ChurnGenerator churn(model, Rng(seed + 2));
  Point out;
  for (std::uint64_t i = 0; i < steps && t.size() >= 4; ++i) {
    hc.submit(churn.next(t), [](const core::Result&) {});
    if (i % 32 == 0) {
      out.worst_light = std::max(out.worst_light, hc.max_light_ancestors());
    }
  }
  out.worst_light = std::max(out.worst_light, hc.max_light_ancestors());
  out.n_final = t.size();
  out.messages = hc.messages();
  out.overhead = static_cast<double>(hc.messages()) /
                 static_cast<double>(std::max<std::uint64_t>(
                     hc.estimator().messages(), 1));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run("exp8", argc, argv);
  const std::uint64_t seed = run.base_seed(41);
  banner("EXP8: heavy-child decomposition (Thm 5.4)");

  const std::vector<workload::ChurnModel> models = {
      workload::ChurnModel::kGrowOnly, workload::ChurnModel::kBirthDeath,
      workload::ChurnModel::kInternalChurn,
      workload::ChurnModel::kFlashCrowd};
  const std::uint64_t n0 = 128, steps = 1200;
  std::vector<Point> points(models.size());
  parallel_sweep(run, points.size(), [&](std::size_t i) {
    points[i] = measure(models[i], n0, steps, seed);
  });

  Table tab({"churn", "n0", "n_final", "max light anc", "log2(n)",
             "ratio", "msgs", "overhead vs estimator"});
  for (std::size_t m = 0; m < models.size(); ++m) {
    const Point& p = points[m];
    const double lg = std::log2(
        static_cast<double>(std::max<std::uint64_t>(p.n_final, 4)));
    tab.row({workload::churn_name(models[m]), num(n0), num(p.n_final),
             num(p.worst_light), fp(lg, 1),
             fp(static_cast<double>(p.worst_light) / lg), num(p.messages),
             fp(p.overhead)});
  }
  tab.print();
  std::printf("\nshape check: max light ancestors stays a small constant "
              "times log2(n); overhead factor stays ~<= 2 (paper: the "
              "parent reports at most double the message count).\n");
  return 0;
}
