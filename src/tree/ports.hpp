#pragma once

// Adversarial port numbering (paper §2.1.2).
//
// "We assume the relatively wasteful model in which the port numbers are
//  assigned by an adversary ... encoded using O(log N) bits."
//
// Ports are computed from the tree's own links, never stored: the port at
// node v leading to neighbor w is a fixed keyed 64-bit mix of (v, w) that is
// a bijection in w for each v.  Distinct neighbors of a node therefore get
// distinct ports, a port inverts back to its neighbor in O(1), and a
// topology change re-numbers nothing and allocates nothing.  The numbers
// look arbitrary on purpose: nothing in the protocols may rely on ports
// being small or consecutive, and tests assert per-node uniqueness.

#include <cstddef>

#include "util/ids.hpp"

namespace dyncon::tree {

class DynamicTree;

/// Read-only view of a tree's port numbers (see DynamicTree::ports()).
/// Holds only a pointer to the tree, so it is valid while the tree lives;
/// every query reflects the tree's current links.
class PortAssigner {
 public:
  explicit PortAssigner(const DynamicTree& t) : tree_(&t) {}

  /// True iff (node, neighbor) is a tree edge, i.e. node has a port to it.
  [[nodiscard]] bool has_port(NodeId node, NodeId neighbor) const;
  /// The port at `node` leading to `neighbor`; requires a tree edge.
  [[nodiscard]] PortId port_to(NodeId node, NodeId neighbor) const;
  /// The neighbor behind `port` at `node`; requires a port of `node`.
  [[nodiscard]] NodeId neighbor_at(NodeId node, PortId port) const;
  /// Number of ports at `node` (its tree degree; 0 for a dead id).
  [[nodiscard]] std::size_t degree(NodeId node) const;

 private:
  const DynamicTree* tree_;
};

}  // namespace dyncon::tree
