#pragma once

// Cold-tree hibernation: a resident tree's complete semantic state, folded
// into a compact bit-packed snapshot (PR-1 wire codec, the BoardSnapshot
// idiom from agent/durable.hpp) and back.
//
// The key economy: a forest tree's *topology* is a pure function of its
// split-chain seed plus the list of surviving grow-added leaves, so the
// snapshot never stores the initial tree at all — rematerialization replays
// the seeded build (identical RNG draws), replays the grown/dead id space
// so node ids keep lining up with the never-hibernated run, restores the
// tree RNG's raw state, and rebuilds the controller from its extracted
// image.  That image lists only the alive packages, by host in whiteboard
// order and without ids, so its size and the wake's work follow the
// packages alive now, not the requests the tree ever served.  Every counter those operations would normally fire was already
// counted in the original shard registry, so restore paths fire none, and
// output stays byte-identical at any --resident-trees budget.
//
// Children-list order is reproduced exactly (alive grown leaves re-attach
// in id order, which is their chronological order; dead ids pass through as
// attach-then-detach fillers that leave sibling order untouched), so a
// post-wake reject wave walks the same BFS order it would have originally.
// Port numbers come back identical too: they are computed from the links
// (tree/ports.hpp), and the links are reproduced exactly.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/centralized_controller.hpp"
#include "sim/wire.hpp"
#include "tree/dynamic_tree.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace dyncon::forest {

/// Everything a hibernated tree needs to come back: the id-space shape
/// (total_ever + surviving grown leaves with their parents, ids ascending),
/// the tree RNG's raw state, the engine's grow-cap bookkeeping, and the
/// controller image (absent in echo mode).
struct TreeImage {
  std::uint64_t total_ever = 0;
  std::vector<std::pair<NodeId, NodeId>> grown;  ///< (id, parent), ascending
  Rng::State rng_state{};
  std::uint64_t grows = 0;
  bool has_ctrl = false;
  core::CentralizedController::Image ctrl;
  bool operator==(const TreeImage&) const = default;
};

/// Capture a live tree into `out` (cleared first).  `grown` is the engine's
/// stack of surviving grow-added leaf ids (ascending by construction);
/// parents are read off the tree.  `ctrl` may be null (echo mode).
void capture_tree_image(TreeImage& out, const tree::DynamicTree& t,
                        const core::CentralizedController* ctrl,
                        const Rng& rng, const std::vector<NodeId>& grown,
                        std::uint64_t grows);

/// Exact encoded size in bits (BitCounter pass over the same body writer).
[[nodiscard]] std::uint64_t tree_image_bits(const TreeImage& img);

/// Encode into a bit-packed snapshot.  Pass a previously-finished Encoded
/// as `reuse` to recycle its byte buffer (allocation-free steady state;
/// the frozen-slot free list does exactly this).
[[nodiscard]] sim::Encoded encode_tree_image(const TreeImage& img,
                                             sim::Encoded&& reuse);
[[nodiscard]] sim::Encoded encode_tree_image(const TreeImage& img);

/// Decode; validates the version tag and exact bit consumption.
void decode_tree_image(TreeImage& out, const sim::Encoded& enc);
[[nodiscard]] TreeImage decode_tree_image(const sim::Encoded& enc);

/// Replay the deterministic initial build into a freshly-reset tree:
/// tree_size - 1 add-leaf steps whose parents are drawn from `rng` exactly
/// as the engine's first materialization draws them (node ids come out
/// 0..tree_size-1, so request sites need no stored vector at all).
void build_initial_topology(tree::DynamicTree& t, Rng& rng,
                            std::uint64_t tree_size);

/// Replay the post-build id space [t.total_ever(), img.total_ever): each id
/// in `img.grown` re-attaches under its recorded parent; every other id is
/// a dead node, burned as an add-leaf(root) + remove-leaf filler so future
/// add-leaf calls keep minting the same ids as the never-hibernated run.
void replay_grown_nodes(tree::DynamicTree& t, const TreeImage& img);

}  // namespace dyncon::forest
