#pragma once

// Per-shard arena storage for materialized ("resident") trees.
//
// A million-tree forest cannot afford three heap objects per tree: the
// engine keeps only a 13-byte SoA index entry per tree (seed, status, slot)
// and parks the heavyweight state — DynamicTree, controller, split-chain
// Rng, grow bookkeeping — in slab slots that exist only while a tree is
// resident.  Slots live in fixed-size chunks with stable addresses
// (CentralizedController holds a reference to its tree and is neither
// copyable nor movable, so slot memory must never move), and releasing a
// slot recycles it in place: the tree keeps every node and its child-list
// capacity (DynamicTree::reset_to_root), so an acquire/release cycle
// allocates nothing, and rebuilding a tree allocates only where it
// outgrows what the slot's tree held before (bench/micro_structures
// BM_TreeSlabAcquireReleaseAllocs and BM_TreeRebuildAllocs gate this).
// The controller is not kept: release destroys it, and the next tree in
// the slot builds a fresh one.  A resident controller's package storage
// follows its alive packages (core/package.hpp), so a long-lived tree's
// slot does not grow with the requests it serves.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/centralized_controller.hpp"
#include "tree/dynamic_tree.hpp"
#include "util/error.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace dyncon::forest {

/// One resident tree: everything the eager engine used to keep per tree
/// for its whole lifetime, now paid only while the tree is materialized.
struct LiveTree {
  tree::DynamicTree tree;
  std::optional<core::CentralizedController> ctrl;  ///< echo mode: empty
  Rng rng{0};
  std::vector<NodeId> grown;  ///< grow-added leaves (shrink pops back)
  std::uint64_t grows = 0;    ///< grows granted by this tree instance
  SimTime last_touch = 0;     ///< virtual time of the last serve (LRU key)
  std::uint32_t tree_id = 0;
};

/// Chunked slab of LiveTree slots: stable addresses, free-list reuse,
/// in-place recycling.  Thread-confined to one shard's worker.
class TreeSlab {
 public:
  static constexpr std::size_t kChunk = 32;

  /// Claim a slot (recycled if available, else a new chunk's).  The slot is
  /// in the freshly-constructed state: single-root tree, no controller.
  std::uint32_t acquire() {
    if (free_.empty()) grow();
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    in_use_[slot] = 1;
    ++occupied_;
    return slot;
  }

  /// Return a slot to the free list, resetting its contents in place.  The
  /// tree's node storage and the grown vector keep their capacity —
  /// that retained capacity is bounded by the residency budget times the
  /// per-tree cap, and it is what makes the cycle allocation-free.
  void release(std::uint32_t slot) {
    DYNCON_REQUIRE(slot < in_use_.size() && in_use_[slot] != 0,
                   "release of a slot not in use");
    LiveTree& lt = at(slot);
    lt.ctrl.reset();
    lt.tree.reset_to_root();
    lt.grown.clear();
    lt.grows = 0;
    lt.last_touch = 0;
    in_use_[slot] = 0;
    --occupied_;
    free_.push_back(slot);
  }

  [[nodiscard]] LiveTree& at(std::uint32_t slot) {
    return chunks_[slot / kChunk]->slots[slot % kChunk];
  }
  [[nodiscard]] const LiveTree& at(std::uint32_t slot) const {
    return chunks_[slot / kChunk]->slots[slot % kChunk];
  }

  [[nodiscard]] std::size_t occupied() const { return occupied_; }
  [[nodiscard]] std::size_t capacity() const {
    return chunks_.size() * kChunk;
  }

  /// Visit every occupied slot's LiveTree (slot-index order).
  template <typename F>
  void for_each_occupied(F&& f) const {
    for (std::uint32_t slot = 0; slot < in_use_.size(); ++slot) {
      if (in_use_[slot] != 0) f(at(slot));
    }
  }

  /// Rough heap footprint in bytes.  Counts every slot's retained tree
  /// capacity (free slots keep theirs by design) plus occupied slots'
  /// controller and grown storage.
  [[nodiscard]] std::uint64_t approx_bytes() const {
    std::uint64_t bytes = capacity() * sizeof(LiveTree) +
                          in_use_.capacity() +
                          free_.capacity() * sizeof(std::uint32_t);
    for (std::uint32_t slot = 0; slot < in_use_.size(); ++slot) {
      const LiveTree& lt = at(slot);
      bytes += lt.tree.approx_bytes();
      bytes += lt.grown.capacity() * sizeof(NodeId);
      if (lt.ctrl.has_value()) bytes += lt.ctrl->approx_bytes();
    }
    return bytes;
  }

 private:
  struct Chunk {
    std::array<LiveTree, kChunk> slots;
  };

  void grow() {
    const auto base = static_cast<std::uint32_t>(capacity());
    chunks_.push_back(std::make_unique<Chunk>());
    in_use_.resize(capacity(), 0);
    // Descending push so slots hand out in ascending index order.
    for (std::size_t i = kChunk; i > 0; --i) {
      free_.push_back(base + static_cast<std::uint32_t>(i - 1));
    }
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint8_t> in_use_;
  std::vector<std::uint32_t> free_;
  std::size_t occupied_ = 0;
};

}  // namespace dyncon::forest
