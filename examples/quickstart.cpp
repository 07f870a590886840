// Quickstart: the (M,W)-controller in five minutes.
//
// Builds a small dynamic tree, attaches a controller with M = 8 permits and
// waste W = 2, and walks through the controlled dynamic model: every event
// — including every topological change — asks the controller first.
//
//   $ ./quickstart

#include <cstdio>

#include "core/iterated.hpp"
#include "workload/shapes.hpp"

using namespace dyncon;

int main() {
  // A tree starts as a single root (id 0).  Grow a little starting shape.
  Rng rng(2024);
  tree::DynamicTree tree;
  workload::build(tree, workload::Shape::kRandomAttach, 6, rng);
  std::printf("initial tree: %llu nodes, root=%llu\n",
              static_cast<unsigned long long>(tree.size()),
              static_cast<unsigned long long>(tree.root()));

  // An (M, W)-controller: at most M grants ever; if anything is rejected,
  // at least M - W grants happen.  U bounds nodes-ever (Section 3.3 / the
  // AdaptiveController lifts this requirement).
  core::IteratedController controller(tree, /*M=*/8, /*W=*/2, /*U=*/64);

  // 1. Non-topological events (e.g. "sell one ticket at node u").
  for (NodeId u : tree.alive_nodes()) {
    const core::Result r = controller.request_event(u);
    std::printf("event at node %llu -> %s\n",
                static_cast<unsigned long long>(u),
                core::outcome_name(r.outcome));
  }

  // 2. Topological changes only happen when granted.
  const core::Result leaf = controller.request_add_leaf(tree.root());
  if (leaf.granted()) {
    std::printf("add-leaf granted: new node %llu (tree now %llu nodes)\n",
                static_cast<unsigned long long>(leaf.new_node),
                static_cast<unsigned long long>(tree.size()));
  } else {
    std::printf("add-leaf was %s — the change did NOT happen\n",
                core::outcome_name(leaf.outcome));
  }

  // 3. Exhaust the budget: the controller starts rejecting, but only after
  //    at least M - W = 6 grants (liveness).
  int granted = 0, rejected = 0;
  for (int i = 0; i < 10; ++i) {
    const auto o = controller.request_event(tree.root()).outcome;
    granted += o == core::Outcome::kGranted;
    rejected += o == core::Outcome::kRejected;
  }
  std::printf("after the flood: %llu grants total (M=8, W=2 so >= 6 "
              "guaranteed), %d rejects delivered\n",
              static_cast<unsigned long long>(controller.permits_granted()),
              rejected);
  std::printf("total move complexity: %llu\n",
              static_cast<unsigned long long>(controller.cost()));
  return 0;
}
