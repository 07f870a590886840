// Tests for NCA labels built over the protocol-maintained (approximate)
// heavy-child decomposition: queries stay exact, label lengths stay
// logarithmic even though mu(v) comes from beta-approximate estimates.

#include <gtest/gtest.h>

#include "apps/nca_labeling.hpp"
#include "util/rng.hpp"
#include "workload/shapes.hpp"

namespace dyncon::apps {
namespace {

using core::Result;
using tree::DynamicTree;

struct Sim {
  sim::EventQueue queue;
  sim::Network net;
  DynamicTree tree;
  Sim() : net(queue, sim::make_delay(sim::DelayKind::kFixed, 1)) {}
};

NodeId true_nca(const DynamicTree& t, NodeId u, NodeId v) {
  std::uint64_t du = t.depth(u), dv = t.depth(v);
  while (du > dv) {
    u = t.parent(u);
    --du;
  }
  while (dv > du) {
    v = t.parent(v);
    --dv;
  }
  while (u != v) {
    u = t.parent(u);
    v = t.parent(v);
  }
  return u;
}

void audit_all_pairs(const DynamicTree& t,
                     const NcaLabeling& nca) {
  const auto nodes = t.alive_nodes();
  for (NodeId u : nodes) {
    for (NodeId v : nodes) {
      ASSERT_EQ(nca.nca(u, v), true_nca(t, u, v))
          << "pair (" << u << "," << v << ")";
    }
  }
}

TEST(DistNca, CorrectOnAllShapes) {
  for (auto shape : workload::all_shapes()) {
    Sim s;
    Rng rng(1);
    workload::build(s.tree, shape, 40, rng);
    NcaLabeling nca(s.net, s.tree);
    audit_all_pairs(s.tree, nca);
  }
}

TEST(DistNca, ApproximateDecompositionKeepsLabelsLogarithmic) {
  // The point of the construction: even though mu(v) comes from the
  // protocol's sqrt(3)-approximate estimates, Thm. 5.4's 3/4-weight
  // argument bounds the light depth, and so the label length.
  for (auto shape :
       {workload::Shape::kBinary, workload::Shape::kRandomAttach,
        workload::Shape::kCaterpillar, workload::Shape::kBroom}) {
    Sim s;
    Rng rng(2);
    workload::build(s.tree, shape, 300, rng);
    NcaLabeling nca(s.net, s.tree);
    EXPECT_LE(nca.max_label_entries(),
              2 * ceil_log2(s.tree.size()) + 2)
        << workload::shape_name(shape);
  }
}

TEST(DistNca, LeafChurnStaysExact) {
  Sim s;
  Rng rng(3);
  workload::build(s.tree, workload::Shape::kRandomAttach, 40, rng);
  NcaLabeling nca(s.net, s.tree);
  for (int i = 0; i < 300; ++i) {
    if (rng.chance(0.55)) {
      nca.submit_add_leaf(workload::random_node(s.tree, rng),
                          [](const Result&) {});
    } else {
      const auto nodes = s.tree.alive_nodes();
      const NodeId v = nodes[rng.index(nodes.size())];
      if (v != s.tree.root() && s.tree.is_leaf(v)) {
        nca.submit_remove_leaf(v, [](const Result&) {});
      }
    }
    s.queue.run();
    if (i % 30 == 0) audit_all_pairs(s.tree, nca);
  }
  audit_all_pairs(s.tree, nca);
  EXPECT_LE(nca.max_label_entries(),
            2 * ceil_log2(s.tree.size()) + 3);
}

TEST(DistNca, GrowthTriggersRebuilds) {
  Sim s;
  Rng rng(4);
  workload::build(s.tree, workload::Shape::kRandomAttach, 16, rng);
  NcaLabeling nca(s.net, s.tree);
  const std::uint64_t before = nca.rebuilds();
  for (int i = 0; i < 200; ++i) {
    nca.submit_add_leaf(workload::random_node(s.tree, rng),
                        [](const Result&) {});
    s.queue.run();
  }
  EXPECT_GT(nca.rebuilds(), before);  // 16 -> 216 nodes: several doublings
  audit_all_pairs(s.tree, nca);
}

TEST(DistNca, InternalRemovalRejected) {
  Sim s;
  Rng rng(5);
  workload::build(s.tree, workload::Shape::kPath, 5, rng);
  NcaLabeling nca(s.net, s.tree);
  EXPECT_THROW(
      nca.submit_remove_leaf(s.tree.alive_nodes()[1], [](const Result&) {}),
      ContractError);
}

}  // namespace
}  // namespace dyncon::apps
