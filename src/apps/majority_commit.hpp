#pragma once

// Majority commitment over a dynamic network (§1.3).
//
// Bar-Yehuda & Kutten [9] introduced asynchronous size estimation as the
// tool for majority commitment (two-phase commit where a coordinator may
// only commit if a majority of the *current* network agrees) in networks
// whose size is unknown.  This paper generalizes the size estimator to
// networks with deletions and internal insertions; this module carries the
// commitment protocol along:
//
//   * nodes register YES/NO votes (an upcast, one message per hop);
//   * the root commits iff the collected YES count is provably a majority
//     of the true current size, using only the beta-estimate n~:
//     yes >= floor(beta * n~ / 2) + 1  implies  yes > n/2 (soundness),
//     since n <= beta * n~.
//
// Completeness is correspondingly approximate: a YES fraction above
// beta^2/2 of the true size always commits.  With beta < sqrt(2) both
// bounds bite below/above one half.

#include <cstdint>
#include <unordered_map>

#include "apps/size_estimation.hpp"

namespace dyncon::apps {

enum class Vote : std::uint8_t { kYes, kNo, kAbstain };
enum class Decision : std::uint8_t { kCommit, kAbort };

class MajorityCommit {
 public:
  /// beta must be in (1, sqrt(2)) for the commit threshold to be usable.
  MajorityCommit(tree::DynamicTree& tree, double beta);

  // Topological requests flow through the underlying size estimation.
  core::Result request_add_leaf(NodeId parent);
  core::Result request_remove(NodeId v);

  /// Record node v's vote (overwrites a previous vote).
  void cast_vote(NodeId v, Vote vote);

  /// Run the commitment round: upcast the votes of all currently alive
  /// nodes and decide.  Sound: kCommit implies the YES voters alive now are
  /// a strict majority of the current network.
  [[nodiscard]] Decision decide();

  /// The threshold the current round would require.
  [[nodiscard]] std::uint64_t commit_threshold() const;

  [[nodiscard]] std::uint64_t size_estimate() const {
    return size_est_->estimate();
  }

 private:
  tree::DynamicTree& tree_;
  double beta_;
  std::unique_ptr<SizeEstimation> size_est_;
  std::unordered_map<NodeId, Vote> votes_;
};

}  // namespace dyncon::apps
