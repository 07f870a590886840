// EXP3 — Head-to-head against the paper's reference points (§1, §1.4):
// the trivial root-trip controller (Omega(n) per request) and the AAPS [4]
// bin-hierarchy controller (grow-only trees; same asymptotics as ours).
//
// Workload: grow-only leaf insertions (the only model all three support),
// random attachment.  Expected shape: trivial grows ~quadratically in total
// cost, AAPS and ours grow ~N polylog N; AAPS has the smaller constant at
// these sizes (its level-0 bins sit at every node, our psi constant is
// large), ours closes the gap as N grows — and only ours also supports
// deletions and internal insertions (EXP5).

#include "bench_util.hpp"
#include "core/aaps_controller.hpp"
#include "core/iterated.hpp"
#include "core/trivial_controller.hpp"
#include "util/stats.hpp"
#include "workload/shapes.hpp"

using namespace dyncon;
using namespace dyncon::core;
using namespace dyncon::bench;

namespace {

/// Grow a tree from 1 node to n by leaf insertions through `ctrl`.
template <typename Ctrl>
std::uint64_t grow_to(Ctrl& ctrl, tree::DynamicTree& t, std::uint64_t n,
                      Rng& rng) {
  while (t.size() < n) {
    const auto nodes = t.alive_nodes();
    ctrl.request_add_leaf(nodes[rng.index(nodes.size())]);
  }
  return ctrl.cost();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run("exp3", argc, argv);
  const std::uint64_t seed = run.base_seed(5);
  banner("EXP3: ours vs AAPS [4] vs trivial controller (grow-only)");

  // Parallel sweep over N: each point grows the three controllers from the
  // same seed; rows print after, in point order (--jobs invariant).
  const std::vector<std::uint64_t> sizes = {256, 512, 1024, 2048, 4096};
  struct Point {
    std::uint64_t trivial = 0, aaps = 0, ours = 0;
  };
  std::vector<Point> points(sizes.size());
  parallel_sweep(run, points.size(), [&](std::size_t i) {
    const std::uint64_t n = sizes[i];
    const std::uint64_t budget = 16 * n;  // headroom over bin stranding

    Rng r1(seed);
    tree::DynamicTree t1;
    TrivialController trivial(t1, budget);
    points[i].trivial = grow_to(trivial, t1, n, r1);

    Rng r2(seed);
    tree::DynamicTree t2;
    AAPSController aaps(t2, budget, budget / 2, 2 * n);
    points[i].aaps = grow_to(aaps, t2, n, r2);

    Rng r3(seed);
    tree::DynamicTree t3;
    IteratedController::Options opts;
    opts.track_domains = false;
    IteratedController ours(t3, budget, budget / 2, 2 * n, opts);
    points[i].ours = grow_to(ours, t3, n, r3);
  });

  Table tab({"N", "trivial", "AAPS", "ours", "trivial/ours", "ours/AAPS"});
  std::vector<double> ns, ct, ca, co;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Point& p = points[i];
    tab.row({num(sizes[i]), num(p.trivial), num(p.aaps), num(p.ours),
             fp(static_cast<double>(p.trivial) /
                static_cast<double>(p.ours)),
             fp(static_cast<double>(p.ours) /
                static_cast<double>(p.aaps))});
    ns.push_back(static_cast<double>(sizes[i]));
    ct.push_back(static_cast<double>(p.trivial));
    ca.push_back(static_cast<double>(p.aaps));
    co.push_back(static_cast<double>(p.ours));
  }
  tab.print();
  std::printf("\nlog-log slopes:  trivial=%.2f  AAPS=%.2f  ours=%.2f\n",
              loglog_slope(ns, ct), loglog_slope(ns, ca),
              loglog_slope(ns, co));
  std::printf("shape check: trivial ~> 1.3 (deeper trees make each trip "
              "longer), AAPS/ours ~1 (amortized); only ours supports the "
              "full dynamic model.\n");
  return 0;
}
