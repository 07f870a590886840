#pragma once

// Durable whiteboards: crash-surviving snapshots of per-node coordination
// state (ROADMAP item 3).
//
// A whiteboard is the only protocol state a node holds between agent
// visits, and Claim 4.8 already bounds its size to O(log N) bits per
// parked agent — so persisting it is cheap *by construction*, and this
// layer proves that: every snapshot is encoded with the PR-1 wire codec
// (gamma/varint bit streams), its measured size is metered (and optionally
// charged through the network as §2.2 application traffic), and the
// property tests assert encode→decode identity plus the size-vs-accounting
// bound.
//
// A BoardSnapshot extends the raw Whiteboard with the *agent-side* state of
// each parked waiter (origin, distance, phase, request), because a waiter
// reincarnated after a restart must resume "as if it had just entered the
// node" (§4.3) — which takes the agent's own counters, not just its id.
// Parked waiters are always pre-grant (kStart/kClimb, proven by the
// protocol: an agent only parks before acquiring its first lock at that
// node), so they never carry packages and the snapshot needs no Bag field
// beyond the phase tag.
//
// The DurableStore is a model of per-node stable storage co-located with
// the node: writes happen synchronously at mutation time (the journal is
// always current when the crash hits), survive the crash, and are read
// back on restart.  The simulator keeps one store per controller, indexed
// by node — the distribution is logical, matching how whiteboards
// themselves are stored.

#include <cstdint>
#include <functional>
#include <vector>

#include "agent/runtime.hpp"
#include "agent/whiteboard.hpp"
#include "sim/wire.hpp"
#include "util/ids.hpp"

namespace dyncon::sim {
class Network;
}  // namespace dyncon::sim

namespace dyncon::agent {

/// Whether a controller's whiteboards survive node crashes.
enum class Durability : std::uint8_t {
  kVolatile,  ///< a crash wipes the board; holder doomed, waiters killed
  kDurable,   ///< journaled boards restored on restart; waiters reincarnate
};

[[nodiscard]] const char* durability_name(Durability d);

/// One parked agent as persisted: the whiteboard's Waiter entry plus the
/// agent state needed to reincarnate it after a restart.
struct ParkedAgent {
  AgentId agent = kNoAgent;
  NodeId came_from = kNoNode;  ///< child it arrived from (kNoNode: born here)
  NodeId origin = kNoNode;     ///< request origin
  std::uint64_t distance = 0;  ///< hops to origin when it parked
  std::uint8_t phase = 0;      ///< protocol phase tag (< 8, 3 bits)
  std::uint8_t req_type = 0;   ///< RequestSpec::Type (< 4, 2 bits)
  NodeId req_subject = kNoNode;
  bool operator==(const ParkedAgent&) const = default;
};

/// A whole whiteboard as persisted.
struct BoardSnapshot {
  bool locked = false;
  AgentId locked_by = kNoAgent;
  NodeId down_child = kNoNode;
  bool flooded = false;
  std::vector<ParkedAgent> queue;
  bool operator==(const BoardSnapshot&) const = default;
};

/// Wire-codec round trip.  decode_board(encode_board(b)) == b for every
/// representable snapshot (property-tested); decode validates version and
/// exact consumption.
[[nodiscard]] sim::Encoded encode_board(const BoardSnapshot& b);
/// Same, into `reuse`'s byte buffer (cleared, capacity kept).
[[nodiscard]] sim::Encoded encode_board(const BoardSnapshot& b,
                                        sim::Encoded&& reuse);
[[nodiscard]] BoardSnapshot decode_board(const sim::Encoded& e);
/// Exact encoded size in bits without materializing bytes (BitCounter).
[[nodiscard]] std::uint64_t board_snapshot_bits(const BoardSnapshot& b);

/// Modeled bits of one parked agent's persisted state when the tree has n
/// live nodes: four O(log n) fields (came_from, origin, distance, request
/// subject) plus the phase/type flags — the Claim 4.8 shape.
[[nodiscard]] inline std::uint64_t parked_agent_model_bits(std::uint64_t n) {
  return 4 * (ceil_log2(n < 2 ? 2 : n) + 1) + 8;
}

/// The accounting budget the encoded snapshot must stay within when every
/// node reference is < n and every distance <= n: a constant header plus,
/// per waiter, the id varint and twice the modeled bits (a gamma code costs
/// at most 2x the binary length + 1, and the model already carries +1/field
/// slack).  This is the bound test_crash_recovery asserts, tying the
/// serialized size to the Claim 4.8 memory accounting.
[[nodiscard]] std::uint64_t board_snapshot_budget_bits(const BoardSnapshot& b,
                                                       std::uint64_t n);

/// Per-controller stable storage: one encoded snapshot slot per node.
///
/// The store pulls state through a provider callback (the controller
/// assembles the BoardSnapshot from its whiteboard + agent table), so the
/// whiteboard layer stays ignorant of agent internals.  The provider fills
/// one scratch snapshot the store reuses, and persist() encodes it into the
/// node's existing slot, so a warm store journals without allocating.
/// Every persist() bumps recovery.snapshot_writes / recovery.snapshot_bits;
/// when a network is attached via set_charge_network, the measured size is
/// also charged as metered application traffic (§2.2) so persistence cost
/// appears in the message accounting — off by default, because charging
/// changes NetStats and existing fault-free runs must stay byte-identical.
class DurableStore {
 public:
  /// Fills the snapshot (left as the previous persist wrote it) with the
  /// state of a node.
  using Provider = std::function<void(NodeId, BoardSnapshot&)>;

  explicit DurableStore(Provider provider);
  /// A provider that returns a fresh snapshot per call (its allocations
  /// are its own).
  explicit DurableStore(std::function<BoardSnapshot(NodeId)> provider);

  /// Meter persists through `net` as kApp traffic (nullptr detaches).
  void set_charge_network(sim::Network* net) { net_ = net; }

  /// Snapshot node `v` now (provider -> encode -> store).
  void persist(NodeId v);
  /// Forget a removed node's slot (its state was handed to the parent,
  /// whose own persist covers it).
  void erase(NodeId v);

  [[nodiscard]] bool has(NodeId v) const;
  /// Decode the stored snapshot of `v`; requires has(v).
  [[nodiscard]] BoardSnapshot restore(NodeId v) const;

  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t bits_written() const { return bits_written_; }

 private:
  Provider provider_;
  BoardSnapshot scratch_;  ///< the provider's output, reused every persist
  sim::Network* net_ = nullptr;
  std::vector<sim::Encoded> slots_;  // dense by NodeId; empty slot = absent
  std::vector<bool> present_;
  std::uint64_t writes_ = 0;
  std::uint64_t bits_written_ = 0;
};

}  // namespace dyncon::agent
