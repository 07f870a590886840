#pragma once

// Asynchronous point-to-point message transport with cost accounting.
//
// `Network` is the only way protocol layers send anything, so its counters
// are authoritative for the paper's cost measure (message complexity) and
// for the O(log N)-bit message-size claim (§2.1.1, Lemma 4.5).  Every send
// takes a typed `Message` (sim/wire.hpp) and *measures* its encoded size —
// no caller ever claims a bit count.  In debug builds each message is also
// decoded back and compared against the original, and an optional link
// check asserts the agent layer's "only send along tree edges" contract
// instead of assuming it.
//
// Links are reliable by default.  Installing a FaultPolicy (sim/fault.hpp)
// makes them lossy: every physical transmission may be dropped, duplicated,
// or held, and the charge is for transmissions, not deliveries (a lost
// message was still sent; a duplicated one cost two sends).  Enabling the
// reliability sublayer (sim/channel.hpp) then routes every logical send
// through a per-link ARQ channel that rebuilds the reliable-FIFO
// abstraction over the faulty links — at a measured cost.  With no policy
// installed, or a policy whose rates are all zero, both features are exact
// no-ops and the run is bit-identical to one on a plain network.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "sim/delay.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/wire.hpp"
#include "util/ids.hpp"

namespace dyncon::sim {

class ReliableChannel;
struct ChannelConfig;

/// Per-kind and aggregate message statistics, all derived from measured
/// (encoded) sizes.
struct NetStats {
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(MsgKind::kKindCount__);

  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t max_message_bits = 0;
  std::array<std::uint64_t, kKinds> by_kind{};
  std::array<std::uint64_t, kKinds> bits_by_kind{};
  std::array<std::uint64_t, kKinds> max_bits_by_kind{};
  /// size_histogram[w] counts messages whose encoded size has bit-width w,
  /// i.e., sizes in [2^(w-1), 2^w); bucket 0 is the (impossible) empty
  /// message.  The histogram is the measured shape exp9/exp13 report
  /// against the c*log N envelope.
  std::array<std::uint64_t, 65> size_histogram{};
  /// Number of debug-build encode->decode->compare round trips performed
  /// (0 in NDEBUG builds); lets tests assert the verification actually ran.
  std::uint64_t roundtrip_checks = 0;

  bool operator==(const NetStats&) const = default;

  [[nodiscard]] std::uint64_t kind(MsgKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t kind_bits(MsgKind k) const {
    return bits_by_kind[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t kind_max_bits(MsgKind k) const {
    return max_bits_by_kind[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::string str() const;

  /// Accumulate another instance's stats (benches sum the networks of a
  /// sweep into one figure for the run report).
  void merge(const NetStats& other);
};

/// Damage the installed FaultPolicy actually inflicted (cumulative per
/// network instance; the live registry counterparts are faults.injected.*).
struct FaultStats {
  std::uint64_t drops = 0;        ///< transmissions charged but never delivered
  std::uint64_t duplicates = 0;   ///< extra deliveries injected
  std::uint64_t stalls = 0;       ///< transmissions held by a stalled endpoint
  std::uint64_t stall_ticks = 0;  ///< total hold time across those
  bool operator==(const FaultStats&) const = default;

  void merge(const FaultStats& other);
};

/// Message transport over the event queue.
class Network {
 public:
  /// Delivery continuation: an InlineFn, same as EventQueue::Action (the
  /// network moves it straight into the scheduled event).  Captures must
  /// fit InlineFn's 64-byte inline budget — oversized captures fail to
  /// compile rather than silently heap-allocate.
  using Deliver = EventQueue::Action;
  /// Debug contract hook: returns whether a (from, to, kind) send is legal
  /// under the installing protocol's topology contract.  Cold (debug-only,
  /// install-time), so std::function's flexibility is fine here.
  using LinkCheck = std::function<bool(NodeId, NodeId, MsgKind)>;

  Network(EventQueue& queue, std::unique_ptr<DelayPolicy> delay);
  ~Network();

  /// Send one encoded message; `on_deliver` fires when it arrives.  The
  /// payload size charged to the stats is measured from the encoding —
  /// senders cannot claim a size.  On a lossy network with the reliability
  /// sublayer enabled the send is routed through the per-link ARQ channel
  /// (and `on_deliver` still fires exactly once, in FIFO order per link);
  /// lossy without the sublayer, the message may simply never arrive.
  void send(NodeId from, NodeId to, const Message& msg, Deliver on_deliver);

  /// Account for `count` messages shaped like `prototype` that are modeled
  /// but not individually scheduled (e.g., a graceful-deletion data
  /// handoff, which is applied atomically but costs O(deg + log^2 U) real
  /// messages).  The per-message size is measured from the prototype.
  /// Charged traffic is exempt from fault injection: it models messages
  /// whose effect has already been applied atomically, so losing one would
  /// desynchronize the model from the state it describes.
  void charge(const Message& prototype, std::uint64_t count);

  /// Install the fault adversary consulted on every physical transmission
  /// (nullptr restores reliable links).  Deterministic given the policy's
  /// seed, so any chaos failure replays from its configuration.
  void set_fault_policy(std::unique_ptr<FaultPolicy> policy);
  [[nodiscard]] const FaultPolicy* fault_policy() const {
    return faults_.get();
  }
  /// True when an installed policy can actually injure a message.  All the
  /// fault/reliability machinery is gated on this, so a zero-rate policy is
  /// indistinguishable from no policy at all.
  [[nodiscard]] bool lossy() const {
    return faults_ != nullptr && !faults_->fault_free();
  }

  /// Engage the reliable-channel sublayer (sim/channel.hpp).  Idempotent;
  /// a strict passthrough while the network is not lossy.
  void enable_reliability();
  void enable_reliability(const ChannelConfig& cfg);
  [[nodiscard]] bool reliable() const { return channel_ != nullptr; }
  /// The engaged channel, or nullptr (for its stats/config).
  [[nodiscard]] const ReliableChannel* channel() const {
    return channel_.get();
  }

  [[nodiscard]] const FaultStats& fault_stats() const { return fault_stats_; }

  /// Opt-in strict mode: any message (sent or charged) whose measured size
  /// exceeds `limit` bits aborts the run with an InvariantError.  0
  /// disables.  Benches set this to the c*log N envelope so a message-size
  /// regression fails the experiment instead of skewing a column.
  void set_strict_max_bits(std::uint64_t limit) { strict_max_bits_ = limit; }
  [[nodiscard]] std::uint64_t strict_max_bits() const {
    return strict_max_bits_;
  }

  /// Install the debug-only adjacency hook (checked in debug builds on
  /// every send).  `owner` identifies the installer so nested protocols can
  /// replace each other's hooks and `clear_link_check` only removes its
  /// own.  The distributed controllers wire this to their DynamicTree so
  /// the header's "the agent layer only sends along tree edges" contract
  /// is asserted instead of assumed.
  void set_link_check(const void* owner, LinkCheck check);
  /// Remove the hook iff `owner` installed the current one.
  void clear_link_check(const void* owner);

  [[nodiscard]] const NetStats& stats() const { return stats_; }
  void reset_stats() { stats_ = NetStats{}; }

  /// Same-edge delivery coalescing: consecutive sends on one (src, dst)
  /// link, bound for the same delivery tick with nothing else scheduled in
  /// between, merge into one queue event (up to 16 deliveries).
  /// ON by default — coalescing is exact: per-message accounting, fault
  /// draws, delay draws, and the (when, seq) firing order are all
  /// unchanged, so a batched run is byte-identical to an unbatched one.
  void set_batching(bool on) { batching_ = on; }
  [[nodiscard]] bool batching() const { return batching_; }
  /// Coalesced events fired (each merged >= 2 deliveries); tests read it to
  /// prove a batched-vs-unbatched comparison was not vacuous.
  [[nodiscard]] std::uint64_t batch_frames() const { return batch_frames_; }

  /// True while the current event still has transport work queued BEHIND the
  /// continuation now running: a coalesced batch delivering its remaining
  /// members, or the ARQ channel releasing held frames / about to send its
  /// ack.  Inline fast paths that rely on "nothing happens between this
  /// point and the next queue pop" (the controller's inline grant waves)
  /// must check this and fall back to scheduling, or their sends would
  /// consume delay/fault draws ahead of the pending transport work and the
  /// run would diverge from its unbatched twin.
  [[nodiscard]] bool guarded_dispatch() const { return guard_depth_ != 0; }

  [[nodiscard]] EventQueue& queue() { return queue_; }

 private:
  friend class ReliableChannel;

  /// The one batch currently accepting appends (at most one: adjacency is
  /// what makes coalescing order-exact).  A batch opens LAZILY: the head
  /// delivery is scheduled plain — exactly the unbatched path — and only
  /// a second coalescible send upgrades the pending queue entry into a
  /// batch dispatch (EventQueue::replace_action).  The dominant n==1 case
  /// therefore pays a few stores here and nothing else.
  struct OpenBatch {
    bool active = false;
    bool upgraded = false;  ///< head entry already swapped for fire_batch
    NodeId from = 0;
    NodeId to = 0;
    SimTime when = 0;           ///< delivery tick of every member
    std::uint64_t sched_seq = 0;  ///< queue seq watermark at open/append —
                                  ///< any scheduling in between closes it
    std::uint32_t head_slot = 0;  ///< queue slab slot of the plain head
    std::uint32_t slot = 0;       ///< batch slot, meaningful once upgraded
  };

  void account(MsgKind kind, std::uint64_t bits, std::uint64_t count);
  /// One physical transmission: measure, charge (under the inner kind for
  /// channel data frames), consult the fault policy, schedule the surviving
  /// copies.  `send` routes here directly on a reliable network; the
  /// channel routes its frames (data, retransmits, acks) here so they are
  /// subject to the same faults and the same accounting as everything else.
  void transmit(NodeId from, NodeId to, const Message& msg,
                Deliver on_deliver);
  /// Schedule one surviving delivery — appending to the open batch when the
  /// coalescing conditions hold, else opening a fresh one.
  void deliver_or_batch(NodeId from, NodeId to, SimTime delay, Deliver cont);
  /// Fire a batch: credit the merged continuations as fired events, run
  /// every entry in append (== seq) order.
  void fire_batch(std::uint32_t slot);

  EventQueue& queue_;
  std::unique_ptr<DelayPolicy> delay_;
  std::unique_ptr<FaultPolicy> faults_;
  std::unique_ptr<ReliableChannel> channel_;
  NetStats stats_;
  FaultStats fault_stats_;
  std::uint64_t batch_frames_ = 0;
  /// Pooled coalescing buffers: the continuations merged into one queue
  /// event each.  They keep their capacity across reuse — zero
  /// steady-state allocation.
  std::vector<std::vector<Deliver>> batch_slots_;
  std::vector<std::uint32_t> batch_free_;  ///< recycled slot indices
  OpenBatch open_;
  std::uint32_t guard_depth_ = 0;  ///< see guarded_dispatch()
  bool batching_ = true;
  std::uint64_t seq_ = 0;
  std::uint64_t strict_max_bits_ = 0;
  LinkCheck link_check_;
  const void* link_check_owner_ = nullptr;
};

}  // namespace dyncon::sim
