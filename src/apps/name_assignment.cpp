#include "apps/name_assignment.hpp"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "util/error.hpp"

namespace dyncon::apps {

using core::RequestSpec;
using core::Result;

NameAssignment::NameAssignment(sim::Network* net, tree::DynamicTree& tree,
                               Options options)
    : TerminatingIterations(net, tree), options_(options) {
  start();
}

void NameAssignment::relabel_dfs(std::uint64_t offset) {
  // One DFS token walk assigning offset + DFS number: 2(n-1) hops of
  // O(log n) bits, applied atomically here (the controller is quiescent at
  // relabel time, so the walk cannot race anything).
  std::uint64_t dfs = 0;
  std::vector<NodeId> stack{tree_.root()};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    ids_[v] = offset + ++dfs;
    const auto& kids = tree_.children(v);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  messages_base_ += stack_.charge(
      sim::Message::app_value(sim::AppTopic::kToken, 4 * tree_.size()),
      2 * (tree_.size() - 1));
}

std::unique_ptr<core::TerminatingController> NameAssignment::iteration(
    std::uint64_t ni) {
  // Two traversals: temporary range first so identities stay unique while
  // they change (3*N_i + DFS <= 4*N_i <= 4n), then the final [1, N_i].
  relabel_dfs(3 * ni);
  relabel_dfs(0);
  // Drop stale entries of deleted nodes.
  std::erase_if(ids_,
                [this](const auto& kv) { return !tree_.alive(kv.first); });

  const std::uint64_t Mi = std::max<std::uint64_t>(ni / 2, 1);
  const std::uint64_t Wi = std::max<std::uint64_t>(ni / 4, 1);
  core::TerminatingController::Options opts;
  opts.track_domains = options_.track_domains;
  // Serial numbers [N_i + 1, N_i + M_i]: disjoint from [1, N_i] and within
  // [1, 3N_i/2], so every identity stays in [1, 4n] throughout.
  opts.serials = Interval(ni + 1, ni + Mi);
  return std::make_unique<core::TerminatingController>(
      stack_.net(), tree_, Mi, Wi, /*U=*/2 * ni + Mi, std::move(opts));
}

void NameAssignment::on_verdict(const RequestSpec& spec, const Result& r) {
  if (!r.granted()) return;
  if (r.new_node != kNoNode) {
    DYNCON_INVARIANT(r.serial.has_value(), "granted permit carries no name");
    ids_[r.new_node] = *r.serial;
  } else if (spec.type == RequestSpec::Type::kRemove) {
    ids_.erase(spec.subject);
  }
}

std::uint64_t NameAssignment::id_of(NodeId v) const {
  DYNCON_REQUIRE(tree_.alive(v), "id of a dead node");
  auto it = ids_.find(v);
  DYNCON_INVARIANT(it != ids_.end(), "alive node without an identity");
  return it->second;
}

std::uint64_t NameAssignment::max_id() const {
  std::uint64_t best = 0;
  for (NodeId v : tree_.alive_nodes()) best = std::max(best, id_of(v));
  return best;
}

bool NameAssignment::ids_unique() const {
  std::unordered_set<std::uint64_t> seen;
  for (NodeId v : tree_.alive_nodes()) {
    if (!seen.insert(id_of(v)).second) return false;
  }
  return true;
}

}  // namespace dyncon::apps
