// Unit tests for the dynamic tree substrate: the four controlled
// topological changes, queries, ports, validation, and observers.

#include <gtest/gtest.h>

#include <algorithm>

#include "tree/dynamic_tree.hpp"
#include "tree/validate.hpp"
#include "util/rng.hpp"

namespace dyncon::tree {
namespace {

TEST(DynamicTree, StartsWithRootOnly) {
  DynamicTree t;
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.total_ever(), 1u);
  EXPECT_TRUE(t.alive(t.root()));
  EXPECT_EQ(t.parent(t.root()), kNoNode);
  EXPECT_TRUE(t.is_leaf(t.root()));
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, AddLeafBasics) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.parent(b), a);
  EXPECT_EQ(t.depth(b), 2u);
  EXPECT_FALSE(t.is_leaf(a));
  EXPECT_TRUE(t.is_leaf(b));
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, RemoveLeaf) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  t.remove_leaf(b);
  EXPECT_FALSE(t.alive(b));
  EXPECT_TRUE(t.is_leaf(a));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.total_ever(), 3u);  // ids are never reused
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, RemoveLeafRejectsRootAndInternal) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  t.add_leaf(a);
  EXPECT_THROW(t.remove_leaf(t.root()), ContractError);
  EXPECT_THROW(t.remove_leaf(a), ContractError);  // a is internal now
}

TEST(DynamicTree, AddInternalSplitsEdge) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  const NodeId m = t.add_internal_above(b);
  EXPECT_EQ(t.parent(b), m);
  EXPECT_EQ(t.parent(m), a);
  EXPECT_EQ(t.depth(b), 3u);
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, AddInternalAboveRootChildren) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId m = t.add_internal_above(a);
  EXPECT_EQ(t.parent(m), t.root());
  EXPECT_EQ(t.parent(a), m);
  EXPECT_THROW(t.add_internal_above(t.root()), ContractError);
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, RemoveInternalReparentsChildren) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  const NodeId c = t.add_leaf(a);
  t.remove_internal(a);
  EXPECT_FALSE(t.alive(a));
  EXPECT_EQ(t.parent(b), t.root());
  EXPECT_EQ(t.parent(c), t.root());
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, RemoveNodeDispatches) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  t.remove_node(a);  // internal
  EXPECT_EQ(t.parent(b), t.root());
  t.remove_node(b);  // leaf
  EXPECT_EQ(t.size(), 1u);
}

TEST(DynamicTree, AncestryQueries) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  const NodeId c = t.add_leaf(t.root());
  EXPECT_TRUE(t.is_ancestor(t.root(), b));
  EXPECT_TRUE(t.is_ancestor(a, b));
  EXPECT_TRUE(t.is_ancestor(b, b));
  EXPECT_FALSE(t.is_ancestor(b, a));
  EXPECT_FALSE(t.is_ancestor(c, b));
  EXPECT_EQ(t.ancestor_at(b, 0), b);
  EXPECT_EQ(t.ancestor_at(b, 1), a);
  EXPECT_EQ(t.ancestor_at(b, 2), t.root());
  EXPECT_THROW(t.ancestor_at(b, 3), ContractError);
}

TEST(DynamicTree, AliveNodesIsBfsFromRoot) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(t.root());
  const NodeId c = t.add_leaf(a);
  const auto nodes = t.alive_nodes();
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes[0], t.root());
  EXPECT_EQ(nodes[1], a);
  EXPECT_EQ(nodes[2], b);
  EXPECT_EQ(nodes[3], c);
}

TEST(DynamicTree, PortsUniqueAndSymmetric) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  EXPECT_TRUE(t.ports().has_port(a, t.root()));
  EXPECT_TRUE(t.ports().has_port(a, b));
  const PortId p = t.ports().port_to(a, b);
  EXPECT_EQ(t.ports().neighbor_at(a, p), b);
  EXPECT_EQ(t.ports().degree(a), 2u);
}

TEST(DynamicTree, PortsFollowTopologyChanges) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  const NodeId m = t.add_internal_above(b);
  EXPECT_FALSE(t.ports().has_port(a, b));
  EXPECT_TRUE(t.ports().has_port(a, m));
  EXPECT_TRUE(t.ports().has_port(m, b));
  t.remove_internal(m);
  EXPECT_TRUE(t.ports().has_port(a, b));
  EXPECT_EQ(t.ports().degree(b), 1u);
  EXPECT_TRUE(validate(t).ok());
}

class RecordingObserver final : public TreeObserver {
 public:
  int adds = 0, removes = 0, internal_adds = 0, internal_removes = 0;
  void on_add_leaf(NodeId, NodeId) override { ++adds; }
  void on_remove_leaf(NodeId, NodeId) override { ++removes; }
  void on_add_internal(NodeId, NodeId, NodeId) override { ++internal_adds; }
  void on_remove_internal(NodeId, NodeId,
                          const std::vector<NodeId>&) override {
    ++internal_removes;
  }
};

TEST(DynamicTree, ObserversSeeEveryChange) {
  DynamicTree t;
  RecordingObserver obs;
  t.add_observer(&obs);
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  const NodeId m = t.add_internal_above(b);
  t.remove_internal(m);
  t.remove_leaf(b);
  t.remove_observer(&obs);
  t.add_leaf(a);  // not observed
  EXPECT_EQ(obs.adds, 2);
  EXPECT_EQ(obs.internal_adds, 1);
  EXPECT_EQ(obs.internal_removes, 1);
  EXPECT_EQ(obs.removes, 1);
}

TEST(DynamicTree, RandomizedChurnKeepsStructureValid) {
  DynamicTree t;
  Rng rng(99);
  std::vector<NodeId> alive{t.root()};
  for (int step = 0; step < 2000; ++step) {
    const auto roll = rng.uniform(0, 3);
    alive = t.alive_nodes();
    if (roll == 0 || t.size() < 3) {
      t.add_leaf(alive[rng.index(alive.size())]);
    } else if (roll == 1) {
      const NodeId v = alive[rng.index(alive.size())];
      if (v != t.root()) t.add_internal_above(v);
    } else {
      const NodeId v = alive[rng.index(alive.size())];
      if (v != t.root()) t.remove_node(v);
    }
    const auto res = validate(t);
    ASSERT_TRUE(res.ok()) << "step " << step << ": " << res.detail;
  }
}

// reset_to_root() keeps every node (and its child-list capacity) for reuse;
// a tree grown larger and then reset must be indistinguishable from a fresh
// one under any sequence of the four controlled changes.
TEST(DynamicTree, ResetTreeBehavesLikeFreshTree) {
  Rng rng(2024);
  DynamicTree recycled;
  for (int round = 0; round < 4; ++round) {
    // Grow past anything the sequence below mints, with internal inserts so
    // kept nodes carry stale children and child-list capacity.
    for (int i = 0; i < 600; ++i) {
      const auto v = static_cast<NodeId>(
          rng.index(static_cast<std::size_t>(recycled.total_ever())));
      if (!recycled.alive(v)) continue;
      if (v != recycled.root() && rng.uniform(0, 2) == 0) {
        recycled.add_internal_above(v);
      } else {
        recycled.add_leaf(v);
      }
    }
    // The kept nodes still occupy memory, and the accounting says so.
    const std::uint64_t bytes = recycled.approx_bytes();
    recycled.reset_to_root();
    ASSERT_EQ(recycled.approx_bytes(), bytes);
    DynamicTree fresh;
    for (int step = 0; step < 400; ++step) {
      const auto alive = fresh.alive_nodes();
      const NodeId v = alive[rng.index(alive.size())];
      const bool root = v == fresh.root();
      switch (rng.uniform(0, 3)) {
        case 0:
          ASSERT_EQ(recycled.add_leaf(v), fresh.add_leaf(v));
          break;
        case 1:
          if (!root) {
            ASSERT_EQ(recycled.add_internal_above(v),
                      fresh.add_internal_above(v));
          }
          break;
        case 2:
          if (!root && fresh.is_leaf(v)) {
            fresh.remove_leaf(v);
            recycled.remove_leaf(v);
          }
          break;
        default:
          if (!root && !fresh.is_leaf(v)) {
            fresh.remove_internal(v);
            recycled.remove_internal(v);
          }
          break;
      }
      ASSERT_EQ(recycled.size(), fresh.size()) << "step " << step;
      ASSERT_EQ(recycled.total_ever(), fresh.total_ever()) << "step " << step;
      // Ids past total_ever() include kept nodes: they must stay invisible.
      for (NodeId id = 0; id < fresh.total_ever() + 4; ++id) {
        ASSERT_EQ(recycled.alive(id), fresh.alive(id)) << "id " << id;
        if (!fresh.alive(id)) continue;
        ASSERT_EQ(recycled.parent(id), fresh.parent(id)) << "id " << id;
        ASSERT_EQ(recycled.children(id), fresh.children(id)) << "id " << id;
        ASSERT_EQ(recycled.depth(id), fresh.depth(id)) << "id " << id;
      }
      const auto res = validate(recycled);
      ASSERT_TRUE(res.ok()) << "round " << round << " step " << step << ": "
                            << res.detail;
    }
  }
}

// Ports are computed from the links: per node they are unique, each leads
// back to its neighbor, and only tree edges have one.
TEST(DynamicTree, PortsAreABijectionOnTreeEdges) {
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    DynamicTree t;
    const std::size_t target = 64 + rng.index(1984);
    while (t.size() < target) {
      const auto alive = t.alive_nodes();
      const NodeId v = alive[rng.index(alive.size())];
      const auto roll = rng.uniform(0, 9);
      if (roll < 6 || v == t.root()) {
        t.add_leaf(v);
      } else if (roll < 8) {
        t.add_internal_above(v);
      } else {
        t.remove_node(v);
      }
    }
    ASSERT_TRUE(validate(t).ok());
    const PortAssigner ports = t.ports();
    std::vector<PortId> seen;
    for (NodeId v : t.alive_nodes()) {
      std::vector<NodeId> neighbors = t.children(v);
      if (v != t.root()) neighbors.push_back(t.parent(v));
      ASSERT_EQ(ports.degree(v), neighbors.size());
      seen.clear();
      for (NodeId w : neighbors) {
        ASSERT_TRUE(ports.has_port(v, w));
        const PortId p = ports.port_to(v, w);
        ASSERT_EQ(ports.neighbor_at(v, p), w);
        seen.push_back(p);
      }
      std::sort(seen.begin(), seen.end());
      ASSERT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
          << "duplicate port at " << v;
      // Non-edges: the node itself, a random id (alive or dead) that is not
      // a neighbor, and an id past total_ever().
      const auto other = static_cast<NodeId>(
          rng.index(static_cast<std::size_t>(t.total_ever())));
      for (NodeId w : {v, other, static_cast<NodeId>(t.total_ever())}) {
        if (std::find(neighbors.begin(), neighbors.end(), w) !=
            neighbors.end()) {
          continue;
        }
        EXPECT_FALSE(ports.has_port(v, w));
        EXPECT_THROW((void)ports.port_to(v, w), ContractError);
      }
      // Any other 64-bit value is not a port of v.
      const PortId foreign = rng.next();
      if (!std::binary_search(seen.begin(), seen.end(), foreign)) {
        EXPECT_THROW((void)ports.neighbor_at(v, foreign), ContractError);
      }
    }
    EXPECT_EQ(ports.degree(static_cast<NodeId>(t.total_ever())), 0u);
  }
}

}  // namespace
}  // namespace dyncon::tree
