#pragma once

// The name-assignment protocol of §5.2 (Theorem 5.2), over either
// controller stack.
//
// Every node holds a short unique identity: at any time all identities are
// distinct integers in [1, 4n], i.e. log n + O(1) bits.  Iteration i:
//
//   1. count N_i and relabel in two DFS traversals — first to the
//      "temporary" range (id = 3*N_i + DFS number), then to [1, N_i]; the
//      two-phase dance keeps identities unique *during* the relabeling
//      (each traversal is a token walk of 2(n-1) hops);
//   2. run a terminating (N_i/2, N_i/4)-controller whose permits carry
//      explicit serial numbers from [N_i+1, 3N_i/2]; a node that joins is
//      named by the serial of the permit that admitted it.
//
// The iteration ends when the controller terminates (after >= N_i/4
// changes), giving the O(n0 log^2 n0 + sum_j log^2 n_j) message bound.
//
// Invariants (audited in tests): identities pairwise distinct at all
// times, every identity within [1, 4n].

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "apps/terminating_iterations.hpp"

namespace dyncon::apps {

class NameAssignment final : public TerminatingIterations {
 public:
  struct Options {
    bool track_domains = false;
  };

  /// Over the centralized controller stack.  Initial identities are
  /// assigned by a DFS over the starting tree.
  NameAssignment(tree::DynamicTree& tree, Options options)
      : NameAssignment(nullptr, tree, options) {}
  explicit NameAssignment(tree::DynamicTree& tree)
      : NameAssignment(nullptr, tree, Options{}) {}
  /// Over the simulator.
  NameAssignment(sim::Network& net, tree::DynamicTree& tree, Options options)
      : NameAssignment(&net, tree, options) {}
  NameAssignment(sim::Network& net, tree::DynamicTree& tree)
      : NameAssignment(&net, tree, Options{}) {}

  /// Current identity of an alive node.
  [[nodiscard]] std::uint64_t id_of(NodeId v) const;

  /// Largest identity currently in use (the root always has one, so
  /// >= 1).
  [[nodiscard]] std::uint64_t max_id() const;

  /// True iff all current identities are pairwise distinct (audit).
  [[nodiscard]] bool ids_unique() const;

 private:
  NameAssignment(sim::Network* net, tree::DynamicTree& tree, Options options);
  std::unique_ptr<core::TerminatingController> iteration(
      std::uint64_t ni) override;
  void on_verdict(const core::RequestSpec& spec,
                  const core::Result& r) override;
  void relabel_dfs(std::uint64_t offset);

  Options options_;
  std::unordered_map<NodeId, std::uint64_t> ids_;
};

}  // namespace dyncon::apps
