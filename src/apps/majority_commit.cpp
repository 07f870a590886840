#include "apps/majority_commit.hpp"

#include <cmath>

#include "util/error.hpp"

namespace dyncon::apps {

using core::Result;

MajorityCommit::MajorityCommit(tree::DynamicTree& tree, double beta)
    : tree_(tree), beta_(beta) {
  DYNCON_REQUIRE(beta > 1.0 && beta * beta < 2.0,
                 "beta must be in (1, sqrt(2)) for a usable threshold");
  size_est_ = std::make_unique<SizeEstimation>(tree, beta);
}

Result MajorityCommit::request_add_leaf(NodeId parent) {
  return size_est_->request_add_leaf(parent);
}

Result MajorityCommit::request_remove(NodeId v) {
  Result r = size_est_->request_remove(v);
  if (r.granted()) votes_.erase(v);
  return r;
}

void MajorityCommit::cast_vote(NodeId v, Vote vote) {
  DYNCON_REQUIRE(tree_.alive(v), "vote from a dead node");
  votes_[v] = vote;
}

std::uint64_t MajorityCommit::commit_threshold() const {
  // yes >= floor(beta * n~ / 2) + 1  ==>  yes > beta*n~/2 >= n/2.
  const double half = beta_ * static_cast<double>(size_est_->estimate()) / 2.0;
  return static_cast<std::uint64_t>(std::floor(half)) + 1;
}

Decision MajorityCommit::decide() {
  // Upcast: every node forwards its subtree's YES count to its parent.
  std::uint64_t yes = 0;
  for (NodeId v : tree_.alive_nodes()) {
    auto it = votes_.find(v);
    if (it != votes_.end() && it->second == Vote::kYes) ++yes;
  }
  return yes >= commit_threshold() ? Decision::kCommit : Decision::kAbort;
}

}  // namespace dyncon::apps
