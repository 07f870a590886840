#pragma once

// Distributed majority commitment / two-phase commit (§1.3).
//
// Bar-Yehuda & Kutten [9] showed that asynchronous size estimation is the
// key to majority commitment in networks of unknown size; this paper's
// estimator extends the technique to networks with deletions and internal
// insertions.  This module is the end-to-end distributed protocol:
//
//   phase 0  membership churn flows through the distributed size
//            estimator, so the coordinator always holds a
//            beta-approximation n~ of the live size;
//   phase 1  VOTE-REQ broadcast + YES-count convergecast (real messages);
//   phase 2  COMMIT/ABORT decision broadcast, delivered to every node.
//
// Soundness: COMMIT is announced only when yes >= floor(beta*n~/2) + 1,
// which implies yes > n/2 for the true current n.  Rounds must run while
// the network is quiescent (no in-flight membership grants), which the
// caller gets by draining the event queue between churn bursts.

#include <cstdint>
#include <unordered_map>

#include "agent/convergecast.hpp"
#include "apps/majority_commit.hpp"  // Vote / Decision vocabulary
#include "apps/size_estimation.hpp"

namespace dyncon::apps {

class TwoPhaseCommit {
 public:
  using Callback = SizeEstimation::Callback;

  struct Options {
    bool track_domains = false;
  };

  /// beta must lie in (1, sqrt(2)) so the threshold is usable.
  TwoPhaseCommit(sim::Network& net, tree::DynamicTree& tree, double beta,
                 Options options);
  TwoPhaseCommit(sim::Network& net, tree::DynamicTree& tree, double beta)
      : TwoPhaseCommit(net, tree, beta, Options{}) {}

  // ---- membership (controlled model, via the size estimator) --------------

  void submit_add_leaf(NodeId parent, Callback done);
  void submit_remove(NodeId v, Callback done);

  // ---- voting ---------------------------------------------------------------

  /// Record node v's standing vote (its reply to the next VOTE-REQ).
  void set_vote(NodeId v, Vote vote);

  /// Run one commitment round; `done(decision)` fires after the decision
  /// broadcast has reached every node.  Requires a quiescent network.
  void run_round(std::function<void(Decision)> done);

  /// The decision node v last received (kAbort before any round).
  [[nodiscard]] Decision decision_at(NodeId v) const;

  [[nodiscard]] std::uint64_t size_estimate() const {
    return size_est_.estimate();
  }
  [[nodiscard]] std::uint64_t commit_threshold() const;
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t messages() const;

 private:
  sim::Network& net_;
  tree::DynamicTree& tree_;
  double beta_;
  SizeEstimation size_est_;
  agent::Convergecast cast_;
  std::unordered_map<NodeId, Vote> votes_;
  std::unordered_map<NodeId, Decision> decisions_;
  std::uint64_t rounds_ = 0;
};

}  // namespace dyncon::apps
