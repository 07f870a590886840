#include "tree/validate.hpp"

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace dyncon::tree {

namespace {
ValidationResult fail(std::string detail) {
  return ValidationResult{false, std::move(detail)};
}
}  // namespace

ValidationResult validate(const DynamicTree& t) {
  const auto nodes = t.alive_nodes();  // BFS from the root
  if (nodes.empty() || nodes.front() != t.root()) {
    return fail("BFS does not start at the root");
  }
  if (nodes.size() != t.size()) {
    return fail("alive_count (" + std::to_string(t.size()) +
                ") != reachable nodes (" + std::to_string(nodes.size()) + ")");
  }

  const PortAssigner ports = t.ports();
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> neighbors;
  std::vector<PortId> node_ports;
  for (NodeId v : nodes) {
    if (!t.alive(v)) return fail("BFS reached dead node " + std::to_string(v));
    if (!seen.insert(v).second) {
      return fail("node visited twice (cycle?): " + std::to_string(v));
    }
    // Parent/child symmetry.
    if (v != t.root()) {
      const NodeId p = t.parent(v);
      if (!t.alive(p)) return fail("dead parent of " + std::to_string(v));
      bool found = false;
      for (NodeId c : t.children(p)) found |= (c == v);
      if (!found) {
        return fail("node " + std::to_string(v) +
                    " missing from parent's child list");
      }
      // Port symmetry along the tree edge.
      if (!ports.has_port(v, p) || !ports.has_port(p, v)) {
        return fail("missing port on tree edge " + std::to_string(p) + "-" +
                    std::to_string(v));
      }
    }
    for (NodeId c : t.children(v)) {
      if (!t.alive(c)) {
        return fail("dead child " + std::to_string(c) + " of " +
                    std::to_string(v));
      }
      if (t.parent(c) != v) {
        return fail("child " + std::to_string(c) + " has wrong parent");
      }
    }
    // Ports: one per tree edge, distinct at v, each leading back to its
    // neighbor.
    const std::size_t deg =
        t.children(v).size() + (v == t.root() ? 0u : 1u);
    if (ports.degree(v) != deg) {
      return fail("port degree mismatch at " + std::to_string(v) + ": " +
                  std::to_string(ports.degree(v)) + " vs " +
                  std::to_string(deg));
    }
    neighbors.assign(t.children(v).begin(), t.children(v).end());
    if (v != t.root()) neighbors.push_back(t.parent(v));
    node_ports.clear();
    for (NodeId w : neighbors) {
      const PortId port = ports.port_to(v, w);
      if (ports.neighbor_at(v, port) != w) {
        return fail("port at " + std::to_string(v) +
                    " does not lead back to " + std::to_string(w));
      }
      node_ports.push_back(port);
    }
    std::sort(node_ports.begin(), node_ports.end());
    if (std::adjacent_find(node_ports.begin(), node_ports.end()) !=
        node_ports.end()) {
      return fail("duplicate port at " + std::to_string(v));
    }
  }
  return ValidationResult{};
}

}  // namespace dyncon::tree
