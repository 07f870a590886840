// Tests for the heavy-path NCA labeling scheme (§5.4, Obs. 5.5).

#include <gtest/gtest.h>

#include "apps/nca_labeling.hpp"
#include "sync_result.hpp"
#include "util/rng.hpp"
#include "workload/shapes.hpp"

namespace dyncon::apps {
namespace {

using core::Result;
using tree::DynamicTree;

/// Ground-truth NCA by walking parents.
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

void audit_all_pairs(const DynamicTree& t, const NcaLabeling& nca) {
  const auto nodes = t.alive_nodes();
  for (NodeId u : nodes) {
    for (NodeId v : nodes) {
      ASSERT_EQ(nca.nca(u, v), true_nca(t, u, v))
          << "pair (" << u << "," << v << ")";
    }
  }
}

TEST(NcaLabeling, CorrectOnAllShapes) {
  for (auto shape : workload::all_shapes()) {
    Rng rng(1);
    DynamicTree t;
    workload::build(t, shape, 40, rng);
    NcaLabeling nca(t);
    audit_all_pairs(t, nca);
  }
}

TEST(NcaLabeling, SelfAndAncestorQueries) {
  Rng rng(2);
  DynamicTree t;
  workload::build(t, workload::Shape::kBinary, 31, rng);
  NcaLabeling nca(t);
  const auto nodes = t.alive_nodes();
  for (NodeId v : nodes) {
    EXPECT_EQ(nca.nca(v, v), v);
    EXPECT_EQ(nca.nca(t.root(), v), t.root());
  }
}

TEST(NcaLabeling, LabelsAreLogarithmic) {
  for (auto shape :
       {workload::Shape::kPath, workload::Shape::kBinary,
        workload::Shape::kRandomAttach, workload::Shape::kCaterpillar}) {
    Rng rng(3);
    DynamicTree t;
    workload::build(t, shape, 500, rng);
    NcaLabeling nca(t);
    // Heavy-path decomposition: <= log2(n) light edges on any root path,
    // so <= log2(n) + 1 entries.
    EXPECT_LE(nca.max_label_entries(), ceil_log2(t.size()) + 1)
        << workload::shape_name(shape);
  }
}

TEST(NcaLabeling, PathHasSingleEntryLabels) {
  Rng rng(4);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 60, rng);
  NcaLabeling nca(t);
  EXPECT_EQ(nca.max_label_entries(), 1u);  // one heavy path, no light edges
}

TEST(NcaLabeling, LeafGraftsStayCorrect) {
  Rng rng(5);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 24, rng);
  NcaLabeling nca(t);
  for (int i = 0; i < 30; ++i) {
    const NodeId parent = workload::random_node(t, rng);
    const Result r =
        sync_result([&](auto done) { nca.submit_add_leaf(parent, done); });
    ASSERT_TRUE(r.granted());
    if (i % 6 == 0) audit_all_pairs(t, nca);
  }
  audit_all_pairs(t, nca);
}

TEST(NcaLabeling, LeafRemovalsStayCorrect) {
  Rng rng(6);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 40, rng);
  NcaLabeling nca(t);
  int removed = 0;
  while (removed < 25) {
    const auto nodes = t.alive_nodes();
    const NodeId v = nodes[rng.index(nodes.size())];
    if (v == t.root() || !t.is_leaf(v)) continue;
    ASSERT_TRUE(sync_result([&](auto done) {
                  nca.submit_remove_leaf(v, done);
                }).granted());
    ++removed;
    if (removed % 5 == 0) audit_all_pairs(t, nca);
  }
  audit_all_pairs(t, nca);
}

TEST(NcaLabeling, MixedLeafChurnWithRebuilds) {
  Rng rng(7);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 64, rng);
  NcaLabeling nca(t);
  const std::uint64_t initial_rebuilds = nca.rebuilds();
  for (int i = 0; i < 500; ++i) {
    if (rng.chance(0.5)) {
      nca.submit_add_leaf(workload::random_node(t, rng),
                          [](const Result&) {});
    } else {
      const auto nodes = t.alive_nodes();
      const NodeId v = nodes[rng.index(nodes.size())];
      if (v != t.root() && t.is_leaf(v)) {
        nca.submit_remove_leaf(v, [](const Result&) {});
      }
    }
    if (i % 50 == 0) audit_all_pairs(t, nca);
  }
  audit_all_pairs(t, nca);
  // Growth/shrink over 500 steps triggers at least one rebuild cycle and
  // label lengths stay in the logarithmic band afterwards.
  EXPECT_GE(nca.rebuilds(), initial_rebuilds);
  EXPECT_LE(nca.max_label_entries(), 2 * ceil_log2(t.size()) + 2);
}

TEST(NcaLabeling, RejectsInternalRemoval) {
  Rng rng(8);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 5, rng);
  NcaLabeling nca(t);
  EXPECT_THROW(
      nca.submit_remove_leaf(t.alive_nodes()[1], [](const Result&) {}),
      ContractError);
}

}  // namespace
}  // namespace dyncon::apps
