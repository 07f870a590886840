// Overlay router — §5.4's motivation made concrete.
//
// A message overlay where every node can forward toward any destination
// using only its own routing table and the destination's label (no global
// state, no flooding), while the overlay itself churns.  Routes are exact
// (stretch 1); labels stay ~log n bits because the size-estimation
// protocol triggers relabeling when the network shrinks.
//
//   $ ./overlay_router

#include <cstdio>

#include "apps/interval_labeling.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

using namespace dyncon;

int main() {
  Rng rng(31);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, 37));
  tree::DynamicTree overlay;
  workload::build(overlay, workload::Shape::kRandomAttach, 200, rng);

  apps::IntervalLabeling router(net, overlay);
  workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath, Rng(41));

  std::printf("%6s %7s %12s %11s %9s %14s\n", "phase", "nodes",
              "sample route", "hops=dist?", "label bits", "msgs/change");

  std::uint64_t changes = 0;
  bool all_shortest = true;
  for (int phase = 1; phase <= 6; ++phase) {
    // A burst of membership churn...
    for (int i = 0; i < 120; ++i) {
      const auto spec = churn.next(overlay);
      if (spec.type == core::RequestSpec::Type::kAddLeaf) {
        router.submit_add_leaf(spec.subject, [&](const core::Result& r) {
          changes += r.granted();
        });
      } else if (spec.type == core::RequestSpec::Type::kRemove) {
        router.submit_remove(spec.subject, [&](const core::Result& r) {
          changes += r.granted();
        });
      }
      if (i % 6 == 5) queue.run();
    }
    queue.run();

    // ...then route a random message across the overlay.
    const auto nodes = overlay.alive_nodes();
    const NodeId src = nodes[rng.index(nodes.size())];
    const NodeId dst = nodes[rng.index(nodes.size())];
    if (src == dst) continue;
    const auto hops = router.route(src, dst);
    // Ground-truth distance for the printout.
    std::uint64_t du = overlay.depth(src), dv = overlay.depth(dst);
    NodeId a = src, b = dst;
    while (du > dv) {
      a = overlay.parent(a);
      --du;
    }
    while (dv > du) {
      b = overlay.parent(b);
      --dv;
    }
    std::uint64_t dist = (overlay.depth(src) - du) +
                         (overlay.depth(dst) - dv);
    while (a != b) {
      a = overlay.parent(a);
      b = overlay.parent(b);
      dist += 2;
    }
    all_shortest = all_shortest && hops.size() == dist;
    char route_str[32];
    std::snprintf(route_str, sizeof route_str, "%llu->%llu (%zu)",
                  static_cast<unsigned long long>(src),
                  static_cast<unsigned long long>(dst), hops.size());
    std::printf("%6d %7llu %12s %11s %9llu %14.1f\n", phase,
                static_cast<unsigned long long>(overlay.size()), route_str,
                hops.size() == dist ? "yes" : "NO (bug!)",
                static_cast<unsigned long long>(router.label_bits()),
                static_cast<double>(router.messages()) /
                    static_cast<double>(changes ? changes : 1));
  }

  std::printf("\nevery sampled route was shortest (stretch 1), decided hop "
              "by hop from labels alone; relabels so far: %llu\n",
              static_cast<unsigned long long>(router.relabels()));
  return all_shortest ? 0 : 1;
}
