#include "apps/two_phase_commit.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace dyncon::apps {

TwoPhaseCommit::TwoPhaseCommit(sim::Network& net, tree::DynamicTree& tree,
                               double beta, Options options)
    : net_(net),
      tree_(tree),
      beta_(beta),
      size_est_(net, tree, beta,
                SizeEstimation::Options{options.track_domains, {}, {}}),
      cast_(net, tree) {
  DYNCON_REQUIRE(beta > 1.0 && beta * beta < 2.0,
                 "beta must be in (1, sqrt(2)) for a usable threshold");
}

void TwoPhaseCommit::submit_add_leaf(NodeId parent, Callback done) {
  size_est_.submit_add_leaf(parent, std::move(done));
}

void TwoPhaseCommit::submit_remove(NodeId v, Callback done) {
  votes_.erase(v);  // a departing voter's ballot leaves with it
  size_est_.submit_remove(v, std::move(done));
}

void TwoPhaseCommit::set_vote(NodeId v, Vote vote) {
  DYNCON_REQUIRE(tree_.alive(v), "vote from a dead node");
  votes_[v] = vote;
}

std::uint64_t TwoPhaseCommit::commit_threshold() const {
  const double half =
      beta_ * static_cast<double>(size_est_.estimate()) / 2.0;
  return static_cast<std::uint64_t>(std::floor(half)) + 1;
}

void TwoPhaseCommit::run_round(std::function<void(Decision)> done) {
  DYNCON_REQUIRE(static_cast<bool>(done), "null round callback");
  DYNCON_REQUIRE(!size_est_.rotating() && !cast_.running(),
                 "round requires a quiescent network");
  ++rounds_;
  // Phase 1: VOTE-REQ down, YES-count up.
  cast_.run(
      /*broadcast_value=*/rounds_,
      [this](NodeId v, std::uint64_t) -> std::uint64_t {
        auto it = votes_.find(v);
        return it != votes_.end() && it->second == Vote::kYes ? 1 : 0;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; },
      [this, done = std::move(done)](std::uint64_t yes) {
        const Decision d = yes >= commit_threshold() ? Decision::kCommit
                                                     : Decision::kAbort;
        // Phase 2: decision broadcast (delivered to every node; the upcast
        // back doubles as the "everyone has it" acknowledgement).
        cast_.run(
            static_cast<std::uint64_t>(d),
            [this, d](NodeId v, std::uint64_t) -> std::uint64_t {
              decisions_[v] = d;
              return 0;
            },
            [](std::uint64_t, std::uint64_t) { return 0; },
            [d, done](std::uint64_t) { done(d); });
      });
}

Decision TwoPhaseCommit::decision_at(NodeId v) const {
  DYNCON_REQUIRE(tree_.alive(v), "decision of a dead node");
  auto it = decisions_.find(v);
  return it == decisions_.end() ? Decision::kAbort : it->second;
}

std::uint64_t TwoPhaseCommit::messages() const {
  return size_est_.messages() + cast_.messages();
}

}  // namespace dyncon::apps
