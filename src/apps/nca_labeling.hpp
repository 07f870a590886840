#pragma once

// Nearest-common-ancestor labeling over the protocol-maintained heavy-child
// decomposition (§5.3 + §5.4 composed, Obs. 5.5), over either controller
// stack.
//
// The classic heavy-path NCA labeling: decompose the tree into heavy paths
// (each node points at one heavy child); label(v) lists the (path head,
// exit offset) pairs of the heavy paths the root->v walk crosses.  The
// heavy children are HeavyChild's mu(v) pointers, which come from
// beta-approximate super-weight estimates (Thm. 5.4).  The theorem
// guarantees O(log n) light ancestors even for the approximate pointers, so
// labels have O(log n) entries, i.e. O(log^2 n) bits (the simple variant —
// [8]/[31] shave the extra log with heavier machinery).  On a static tree
// the pointers are the exact-size heavy children.
//
// NCA query from two labels alone: take the longest prefix on which the
// path heads agree — say they still share path h_j — then
// nca = the node of h_j at offset min(o_j(u), o_j(v)).
//
// Dynamics, per Obs. 5.5/Cor. 5.6: deletions of degree-one nodes never
// invalidate surviving labels, and new leaves are grafted as single-node
// light paths (one extra label entry).  Once the size drifts 2x from the
// last build, the current pointers are frozen into fresh labels.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "apps/heavy_child.hpp"

namespace dyncon::apps {

class NcaLabeling {
 public:
  using Callback = HeavyChild::Callback;

  struct Entry {
    NodeId head = kNoNode;     ///< topmost node of the heavy path
    std::uint64_t offset = 0;  ///< exit (or final) position on that path
    bool operator==(const Entry&) const = default;
  };
  using Label = std::vector<Entry>;

  /// Over the centralized controller stack (leaf dynamics only — see the
  /// header comment).
  explicit NcaLabeling(tree::DynamicTree& tree);
  /// Over the simulator.
  NcaLabeling(sim::Network& net, tree::DynamicTree& tree);
  // Pending requests' callbacks hold `this`.
  NcaLabeling(const NcaLabeling&) = delete;
  NcaLabeling& operator=(const NcaLabeling&) = delete;

  void submit_add_leaf(NodeId parent, Callback done);
  void submit_remove_leaf(NodeId v, Callback done);

  /// The NCA of u and v, computed from their labels (plus the per-path
  /// member arrays, which are the scheme's distributed directory).
  [[nodiscard]] NodeId nca(NodeId u, NodeId v) const;

  [[nodiscard]] const Label& label(NodeId v) const;

  /// Worst label length over alive nodes (O(log n) claim).
  [[nodiscard]] std::uint64_t max_label_entries() const;

  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }
  [[nodiscard]] std::uint64_t messages() const;
  [[nodiscard]] const HeavyChild& decomposition() const { return *hc_; }

 private:
  NcaLabeling(std::unique_ptr<HeavyChild> hc, tree::DynamicTree& tree);
  void rebuild();
  void maybe_rebuild();

  tree::DynamicTree& tree_;
  std::unique_ptr<HeavyChild> hc_;
  std::unordered_map<NodeId, Label> labels_;
  /// head -> the path's members, offset order (index 0 = head).
  std::unordered_map<NodeId, std::vector<NodeId>> paths_;
  std::uint64_t built_for_ = 0;  ///< size the labels were last built for
  std::uint64_t rebuilds_ = 0;
  std::uint64_t control_messages_ = 0;
};

}  // namespace dyncon::apps
