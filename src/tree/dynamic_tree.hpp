#pragma once

// The dynamic rooted spanning tree of §2.1.2.
//
// Supports exactly the paper's four controlled topological changes:
//
//   * add-leaf:            new degree-1 node u becomes a child of v
//   * remove-leaf:         non-root degree-1 node is deleted
//   * add-internal-node:   edge (v,w) splits into (v,u),(u,w)
//   * remove-internal-node: non-root internal u is deleted; its children
//                           become children of u's parent
//
// Node ids are permanent (never reused), so `total_ever()` is the paper's
// U-accounting quantity "nodes ever to exist, including deleted ones".
// `reset_to_root()` rewinds the id counter but keeps every node's storage,
// so a recycled tree rebuilds into memory it already owns.
// Observers are notified after each change — that is how the agent layer
// implements the "graceful" deletion contract (whiteboard data moves to the
// parent) without this structure knowing about protocol state.

#include <cstdint>
#include <functional>
#include <vector>

#include "tree/ports.hpp"
#include "util/error.hpp"
#include "util/ids.hpp"

namespace dyncon::tree {

/// Observer of topological changes (notified after the tree is updated).
class TreeObserver {
 public:
  virtual ~TreeObserver() = default;
  virtual void on_add_leaf(NodeId u, NodeId parent) = 0;
  virtual void on_remove_leaf(NodeId u, NodeId parent) = 0;
  /// u inserted between `parent` and `child` (u adopts `child`).
  virtual void on_add_internal(NodeId u, NodeId parent, NodeId child) = 0;
  /// u removed; `children` re-parented to `parent`.
  virtual void on_remove_internal(NodeId u, NodeId parent,
                                  const std::vector<NodeId>& children) = 0;
};

/// Rooted dynamic tree with permanent node ids.
class DynamicTree {
 public:
  /// Create a tree with a single root node (id 0).  The root is never
  /// deleted (paper assumption).
  DynamicTree() { reset_to_root(); }

  /// Build a tree with exactly the given alive nodes: `parent_of` lists
  /// (id, parent-id) pairs, the root as (0, kNoNode).  Ids absent from the
  /// list come into existence as already-deleted nodes, so the alive ids
  /// (and hence recorded Scripts) line up with the source tree's.  Used by
  /// tree::restore(); throws ContractError on inconsistent input.
  static DynamicTree from_structure(
      const std::vector<std::pair<NodeId, NodeId>>& parent_of);

  // ---- queries -----------------------------------------------------------

  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] bool alive(NodeId v) const;
  [[nodiscard]] NodeId parent(NodeId v) const;  ///< kNoNode for the root
  [[nodiscard]] const std::vector<NodeId>& children(NodeId v) const;
  [[nodiscard]] bool is_leaf(NodeId v) const;
  [[nodiscard]] std::uint64_t size() const { return alive_count_; }
  /// Nodes ever created, including deleted ones (the paper's U-quantity).
  [[nodiscard]] std::uint64_t total_ever() const { return minted_; }

  /// Hop distance from v to the root (walks the parent chain; O(depth)).
  [[nodiscard]] std::uint64_t depth(NodeId v) const;

  /// True iff `anc` is an ancestor of v (every node is its own ancestor).
  [[nodiscard]] bool is_ancestor(NodeId anc, NodeId v) const;

  /// The ancestor of v at exactly `hops` hops above it; requires
  /// hops <= depth(v).
  [[nodiscard]] NodeId ancestor_at(NodeId v, std::uint64_t hops) const;

  /// All currently alive node ids (root first, BFS order).
  [[nodiscard]] std::vector<NodeId> alive_nodes() const;

  /// Port numbers, computed from the current links (see ports.hpp).
  [[nodiscard]] PortAssigner ports() const { return PortAssigner(*this); }

  // ---- controlled topological changes -------------------------------------

  /// Add a new leaf as a child of `parent`; returns its id.
  NodeId add_leaf(NodeId parent);

  /// Remove a (non-root) leaf.
  void remove_leaf(NodeId v);

  /// Insert a new node on the tree edge between `child` and its parent;
  /// returns the new node's id.  Requires child != root.
  NodeId add_internal_above(NodeId child);

  /// Remove a non-root internal (non-leaf) node; its children are
  /// re-parented to its parent.
  void remove_internal(NodeId v);

  /// Remove any non-root node, dispatching on leaf/internal.
  void remove_node(NodeId v);

  // ---- storage management (forest slab recycling) -------------------------

  /// Reserve node storage for `n` ids up front (skips the doubling walk
  /// when the final size is known, e.g. a forest tree's initial build).
  void reserve_nodes(std::size_t n) { nodes_.reserve(n); }

  /// Rewind to the single-root state of a freshly constructed tree.  Every
  /// node past the root is kept, child-list capacity included, and the
  /// next add_leaf / add_internal_above reuses it: a slab-recycled tree
  /// rebuilds without allocating unless it outgrows that storage (more ids,
  /// or more children at an id, than it held before).  Requires that no
  /// observers are registered: a recycled identity would dangle them.
  void reset_to_root();

  /// Rough heap footprint in bytes: the node array and every child list,
  /// including the nodes kept past total_ever() by reset_to_root(); an
  /// accounting estimate for `perf.mem.*`, not an allocator truth.
  [[nodiscard]] std::uint64_t approx_bytes() const;

  // ---- observers -----------------------------------------------------------

  void add_observer(TreeObserver* obs);
  void remove_observer(TreeObserver* obs);

 private:
  struct Node {
    NodeId parent = kNoNode;
    std::vector<NodeId> children;
    bool alive = true;
  };

  [[nodiscard]] const Node& node(NodeId v) const;
  [[nodiscard]] Node& node(NodeId v);
  /// Claim the next id as an alive, childless node under `parent`, reusing
  /// kept storage when there is some.  May grow (and so move) `nodes_`.
  Node& mint(NodeId parent);
  void detach_from_parent(NodeId v);

  /// Ids [0, minted_) are the tree's; entries past them are kept storage.
  std::vector<Node> nodes_;
  std::uint64_t minted_ = 0;
  NodeId root_ = 0;
  std::uint64_t alive_count_ = 0;
  std::vector<TreeObserver*> observers_;
};

}  // namespace dyncon::tree
