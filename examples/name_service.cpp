// Overlay name + directory service — §5.2 and §5.4 working together.
//
// A dynamic overlay where every node needs (a) a short unique name (log n +
// O(1) bits, maintained by the name-assignment protocol) and (b) the
// ability to answer "is X in Y's subtree?" purely from two labels (the
// dynamic ancestry labeling of Cor. 5.7).  Churn includes removals of
// internal nodes — the model the prior art (AAPS) cannot handle.
//
//   $ ./name_service

#include <cstdio>

#include "apps/interval_labeling.hpp"
#include "apps/name_assignment.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

using namespace dyncon;

int main() {
  Rng rng(5);
  tree::DynamicTree overlay;
  workload::build(overlay, workload::Shape::kRandomAttach, 100, rng);

  // Two separate trees would be two separate protocols; both apps must see
  // every change, so run them on two mirrored topologies driven by the
  // same churn (each app owns its controller).
  Rng rng2(5);
  tree::DynamicTree mirror;
  workload::build(mirror, workload::Shape::kRandomAttach, 100, rng2);

  apps::NameAssignment names(overlay);
  apps::IntervalLabeling labels(mirror);
  workload::ChurnGenerator churn(workload::ChurnModel::kInternalChurn,
                                 Rng(13));

  std::printf("dynamic name + directory service, internal-churn workload\n");
  std::printf("%6s %7s %10s %8s %10s %9s\n", "step", "nodes", "max name",
              "name/n", "label bits", "relabels");

  for (int step = 1; step <= 1200; ++step) {
    // Drive both mirrored instances with the same proposal (ids align
    // because both trees evolve identically).
    const auto spec = churn.next(overlay);
    switch (spec.type) {
      case core::RequestSpec::Type::kAddLeaf:
        names.request_add_leaf(spec.subject);
        break;
      case core::RequestSpec::Type::kAddInternal:
        names.request_add_internal_above(spec.subject);
        break;
      case core::RequestSpec::Type::kRemove:
        names.request_remove(spec.subject);
        break;
      default:
        break;
    }
    // Over the centralized stack the verdict arrives before submit returns.
    labels.submit(spec, [](const core::Result&) {});
    if (step % 150 == 0) {
      std::printf("%6d %7llu %10llu %8.2f %10llu %9llu\n", step,
                  static_cast<unsigned long long>(overlay.size()),
                  static_cast<unsigned long long>(names.max_id()),
                  static_cast<double>(names.max_id()) /
                      static_cast<double>(overlay.size()),
                  static_cast<unsigned long long>(labels.label_bits()),
                  static_cast<unsigned long long>(labels.relabels()));
    }
  }

  // Demonstrate a directory query answered from labels alone.
  const auto nodes = mirror.alive_nodes();
  const NodeId a = nodes[nodes.size() / 3];
  const NodeId b = nodes[2 * nodes.size() / 3];
  const bool labels_agree =
      labels.is_ancestor(a, b) == mirror.is_ancestor(a, b);
  std::printf("\nquery: is node %llu an ancestor of node %llu?  labels say "
              "%s, tree agrees: %s\n",
              static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(b),
              labels.is_ancestor(a, b) ? "yes" : "no",
              labels_agree ? "yes" : "NO (bug!)");
  std::printf("names stayed unique: %s; names <= 4n and labels ~log n bits "
              "throughout.\n",
              names.ids_unique() ? "yes" : "NO (bug!)");
  return labels_agree && names.ids_unique() ? 0 : 1;
}
