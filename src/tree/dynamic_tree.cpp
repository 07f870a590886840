#include "tree/dynamic_tree.hpp"

#include <algorithm>
#include <deque>
#include <utility>

namespace dyncon::tree {

DynamicTree DynamicTree::from_structure(
    const std::vector<std::pair<NodeId, NodeId>>& parent_of) {
  DYNCON_REQUIRE(!parent_of.empty(), "from_structure: empty node list");
  NodeId max_id = 0;
  for (const auto& [id, parent] : parent_of) {
    max_id = std::max(max_id, id);
  }
  DynamicTree t;
  // Lay out the id space: everything starts dead, then the listed nodes
  // come alive with their parents.
  t.nodes_.assign(static_cast<std::size_t>(max_id) + 1, Node{});
  t.minted_ = max_id + 1;
  for (auto& n : t.nodes_) n.alive = false;
  t.alive_count_ = 0;
  bool saw_root = false;
  for (const auto& [id, parent] : parent_of) {
    Node& n = t.nodes_[static_cast<std::size_t>(id)];
    DYNCON_REQUIRE(!n.alive, "from_structure: duplicate node id");
    n.alive = true;
    n.parent = parent;
    ++t.alive_count_;
    if (id == t.root_) {
      DYNCON_REQUIRE(parent == kNoNode, "from_structure: root has a parent");
      saw_root = true;
    }
  }
  DYNCON_REQUIRE(saw_root, "from_structure: node 0 (the root) missing");
  for (const auto& [id, parent] : parent_of) {
    if (id == t.root_) continue;
    DYNCON_REQUIRE(parent <= max_id &&
                       t.nodes_[static_cast<std::size_t>(parent)].alive,
                   "from_structure: parent not in the node list");
    t.nodes_[static_cast<std::size_t>(parent)].children.push_back(id);
  }
  // Reject cyclic/disconnected inputs: every alive node must be reachable.
  std::uint64_t reachable = 0;
  {
    std::deque<NodeId> bfs{t.root_};
    while (!bfs.empty()) {
      const NodeId v = bfs.front();
      bfs.pop_front();
      ++reachable;
      for (NodeId c : t.nodes_[static_cast<std::size_t>(v)].children) {
        bfs.push_back(c);
      }
    }
  }
  DYNCON_REQUIRE(reachable == t.alive_count_,
                 "from_structure: nodes unreachable from the root (cycle?)");
  return t;
}

const DynamicTree::Node& DynamicTree::node(NodeId v) const {
  DYNCON_REQUIRE(v < minted_, "unknown node id");
  return nodes_[static_cast<std::size_t>(v)];
}

DynamicTree::Node& DynamicTree::node(NodeId v) {
  DYNCON_REQUIRE(v < minted_, "unknown node id");
  return nodes_[static_cast<std::size_t>(v)];
}

DynamicTree::Node& DynamicTree::mint(NodeId parent) {
  if (minted_ == nodes_.size()) nodes_.emplace_back();
  Node& n = nodes_[static_cast<std::size_t>(minted_++)];
  n.parent = parent;
  n.children.clear();
  n.alive = true;
  return n;
}

bool DynamicTree::alive(NodeId v) const {
  return v < minted_ && nodes_[static_cast<std::size_t>(v)].alive;
}

NodeId DynamicTree::parent(NodeId v) const {
  DYNCON_REQUIRE(alive(v), "parent of dead node");
  return node(v).parent;
}

const std::vector<NodeId>& DynamicTree::children(NodeId v) const {
  DYNCON_REQUIRE(alive(v), "children of dead node");
  return node(v).children;
}

bool DynamicTree::is_leaf(NodeId v) const {
  DYNCON_REQUIRE(alive(v), "is_leaf of dead node");
  return node(v).children.empty();
}

std::uint64_t DynamicTree::depth(NodeId v) const {
  DYNCON_REQUIRE(alive(v), "depth of dead node");
  std::uint64_t d = 0;
  for (NodeId cur = v; cur != root_; cur = node(cur).parent) {
    ++d;
    DYNCON_INVARIANT(d <= minted_, "cycle in parent chain");
  }
  return d;
}

bool DynamicTree::is_ancestor(NodeId anc, NodeId v) const {
  DYNCON_REQUIRE(alive(anc) && alive(v), "is_ancestor of dead node");
  for (NodeId cur = v;; cur = node(cur).parent) {
    if (cur == anc) return true;
    if (cur == root_) return false;
  }
}

NodeId DynamicTree::ancestor_at(NodeId v, std::uint64_t hops) const {
  DYNCON_REQUIRE(alive(v), "ancestor_at of dead node");
  NodeId cur = v;
  for (std::uint64_t i = 0; i < hops; ++i) {
    DYNCON_REQUIRE(cur != root_, "ancestor_at: hops exceeds depth");
    cur = node(cur).parent;
  }
  return cur;
}

std::vector<NodeId> DynamicTree::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(alive_count_));
  std::deque<NodeId> bfs{root_};
  while (!bfs.empty()) {
    NodeId v = bfs.front();
    bfs.pop_front();
    out.push_back(v);
    for (NodeId c : node(v).children) bfs.push_back(c);
  }
  return out;
}

NodeId DynamicTree::add_leaf(NodeId p) {
  DYNCON_REQUIRE(alive(p), "add_leaf: parent not alive");
  const NodeId u = minted_;
  mint(p);
  node(p).children.push_back(u);
  ++alive_count_;
  for (auto* obs : observers_) obs->on_add_leaf(u, p);
  return u;
}

void DynamicTree::detach_from_parent(NodeId v) {
  Node& p = node(node(v).parent);
  auto it = std::find(p.children.begin(), p.children.end(), v);
  DYNCON_INVARIANT(it != p.children.end(), "child missing from parent list");
  p.children.erase(it);
}

void DynamicTree::remove_leaf(NodeId v) {
  DYNCON_REQUIRE(alive(v), "remove_leaf: node not alive");
  DYNCON_REQUIRE(v != root_, "the root is never deleted");
  DYNCON_REQUIRE(node(v).children.empty(), "remove_leaf: node has children");
  const NodeId p = node(v).parent;
  detach_from_parent(v);
  node(v).alive = false;
  --alive_count_;
  for (auto* obs : observers_) obs->on_remove_leaf(v, p);
}

NodeId DynamicTree::add_internal_above(NodeId child) {
  DYNCON_REQUIRE(alive(child), "add_internal_above: child not alive");
  DYNCON_REQUIRE(child != root_, "cannot insert above the root");
  const NodeId p = node(child).parent;
  const NodeId u = minted_;
  mint(p).children.push_back(child);
  // Replace `child` by `u` in p's child list (preserving position).
  Node& pn = node(p);
  auto it = std::find(pn.children.begin(), pn.children.end(), child);
  DYNCON_INVARIANT(it != pn.children.end(), "child missing from parent list");
  *it = u;
  node(child).parent = u;
  ++alive_count_;
  for (auto* obs : observers_) obs->on_add_internal(u, p, child);
  return u;
}

void DynamicTree::remove_internal(NodeId v) {
  DYNCON_REQUIRE(alive(v), "remove_internal: node not alive");
  DYNCON_REQUIRE(v != root_, "the root is never deleted");
  DYNCON_REQUIRE(!node(v).children.empty(),
                 "remove_internal: node is a leaf (use remove_leaf)");
  const NodeId p = node(v).parent;
  const std::vector<NodeId> kids = node(v).children;
  detach_from_parent(v);
  for (NodeId c : kids) {
    node(c).parent = p;
    node(p).children.push_back(c);
  }
  node(v).children.clear();
  node(v).alive = false;
  --alive_count_;
  for (auto* obs : observers_) obs->on_remove_internal(v, p, kids);
}

void DynamicTree::remove_node(NodeId v) {
  DYNCON_REQUIRE(alive(v), "remove_node: node not alive");
  if (node(v).children.empty()) {
    remove_leaf(v);
  } else {
    remove_internal(v);
  }
}

void DynamicTree::reset_to_root() {
  DYNCON_REQUIRE(observers_.empty(),
                 "reset_to_root with observers still registered");
  minted_ = 0;
  mint(kNoNode);  // the root, id 0
  alive_count_ = 1;
}

std::uint64_t DynamicTree::approx_bytes() const {
  std::uint64_t bytes = nodes_.capacity() * sizeof(Node);
  for (const Node& n : nodes_) bytes += n.children.capacity() * sizeof(NodeId);
  return bytes;
}

void DynamicTree::add_observer(TreeObserver* obs) {
  DYNCON_REQUIRE(obs != nullptr, "null observer");
  observers_.push_back(obs);
}

void DynamicTree::remove_observer(TreeObserver* obs) {
  std::erase(observers_, obs);
}

}  // namespace dyncon::tree
