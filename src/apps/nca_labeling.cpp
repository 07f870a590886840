#include "apps/nca_labeling.hpp"

#include <algorithm>
#include <utility>

#include "sim/wire.hpp"
#include "util/error.hpp"

namespace dyncon::apps {

using core::Result;

namespace {
/// Rebuild once the size drifts by this factor from the last build.
constexpr std::uint64_t kRebuildDrift = 2;
static_assert(kRebuildDrift > 1, "drift factor must exceed 1");
}  // namespace

NcaLabeling::NcaLabeling(tree::DynamicTree& tree)
    : NcaLabeling(std::make_unique<HeavyChild>(tree), tree) {}

NcaLabeling::NcaLabeling(sim::Network& net, tree::DynamicTree& tree)
    : NcaLabeling(std::make_unique<HeavyChild>(net, tree), tree) {}

NcaLabeling::NcaLabeling(std::unique_ptr<HeavyChild> hc,
                         tree::DynamicTree& tree)
    : tree_(tree), hc_(std::move(hc)) {
  rebuild();
}

void NcaLabeling::rebuild() {
  ++rebuilds_;
  labels_.clear();
  paths_.clear();
  // Freeze the protocol's current mu(v) pointers into heavy paths and
  // label along them, root-down.
  std::unordered_map<NodeId, Entry> position;  // node -> its path position
  for (NodeId v : tree_.alive_nodes()) {
    Entry pos;
    if (v == tree_.root()) {
      pos = Entry{v, 0};
      labels_[v] = {pos};
    } else {
      const NodeId p = tree_.parent(v);
      const Entry parent_pos = position.at(p);
      Label lab = labels_.at(p);
      if (hc_->heavy(p) == v) {
        pos = Entry{parent_pos.head, parent_pos.offset + 1};
        lab.back().offset = pos.offset;
      } else {
        pos = Entry{v, 0};
        lab.push_back(pos);
      }
      labels_[v] = std::move(lab);
    }
    position[v] = pos;
    auto& members = paths_[pos.head];
    DYNCON_INVARIANT(members.size() == pos.offset,
                     "path members built out of order");
    members.push_back(v);
  }
  built_for_ = tree_.size();
  // The labeling DFS traversal: 2(n-1) hops of O(log n)-entry payloads.
  const std::uint64_t hops = 2 * (tree_.size() - 1);
  control_messages_ += hops;
  hc_->charge(sim::Message::app_value(sim::AppTopic::kToken, tree_.size()),
              hops);
}

void NcaLabeling::maybe_rebuild() {
  const std::uint64_t n = std::max<std::uint64_t>(tree_.size(), 1);
  const std::uint64_t base = std::max<std::uint64_t>(built_for_, 1);
  if (n >= base * kRebuildDrift || n * kRebuildDrift <= base) rebuild();
}

void NcaLabeling::submit_add_leaf(NodeId parent, Callback done) {
  hc_->submit_add_leaf(
      parent, [this, parent, done = std::move(done)](const Result& r) {
        if (r.granted()) {
          // The new leaf joins as its own single-node light path: one extra
          // label entry relative to its parent, assigned by a local
          // handshake.
          Label lab = labels_.at(parent);
          lab.push_back(Entry{r.new_node, 0});
          labels_[r.new_node] = std::move(lab);
          paths_[r.new_node] = {r.new_node};
          ++control_messages_;
          maybe_rebuild();
        }
        done(r);
      });
}

void NcaLabeling::submit_remove_leaf(NodeId v, Callback done) {
  DYNCON_REQUIRE(tree_.alive(v) && tree_.is_leaf(v),
                 "NCA labeling supports leaf removals only (Obs. 5.5)");
  hc_->submit_remove(v, [this, v, done = std::move(done)](const Result& r) {
    if (r.granted()) {
      // Obs. 5.5: no surviving label references the removed leaf's
      // position (a leaf is always the terminal node of its path).
      labels_.erase(v);
      auto it = paths_.find(v);
      if (it != paths_.end()) {
        paths_.erase(it);  // it was a single-node path
      } else {
        // It terminated a longer heavy path: shrink that member array.
        for (auto& [head, members] : paths_) {
          if (!members.empty() && members.back() == v) {
            members.pop_back();
            break;
          }
        }
      }
      maybe_rebuild();
    }
    done(r);
  });
}

NodeId NcaLabeling::nca(NodeId u, NodeId v) const {
  const Label& lu = label(u);
  const Label& lv = label(v);
  // Longest shared-head prefix; heads agreeing implies the earlier exit
  // offsets agree too (a heavy path has a unique entry point).
  std::size_t j = 0;
  while (j + 1 < lu.size() && j + 1 < lv.size() &&
         lu[j + 1].head == lv[j + 1].head) {
    ++j;
  }
  DYNCON_INVARIANT(lu[j].head == lv[j].head,
                   "labels share no path (different trees?)");
  const std::uint64_t offset = std::min(lu[j].offset, lv[j].offset);
  const auto& members = paths_.at(lu[j].head);
  DYNCON_INVARIANT(offset < members.size(), "stale path directory");
  return members[offset];
}

const NcaLabeling::Label& NcaLabeling::label(NodeId v) const {
  DYNCON_REQUIRE(tree_.alive(v), "label of a dead node");
  auto it = labels_.find(v);
  DYNCON_INVARIANT(it != labels_.end(), "alive node without a label");
  return it->second;
}

std::uint64_t NcaLabeling::max_label_entries() const {
  std::uint64_t best = 0;
  for (NodeId v : tree_.alive_nodes()) {
    best = std::max<std::uint64_t>(best, label(v).size());
  }
  return best;
}

std::uint64_t NcaLabeling::messages() const {
  return hc_->messages() + control_messages_;
}

}  // namespace dyncon::apps
