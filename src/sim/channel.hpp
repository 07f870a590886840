#pragma once

// Reliable-FIFO channel sublayer over the faulty transport.
//
// The paper grants every protocol reliable links for free; with a
// FaultPolicy installed (sim/fault.hpp) that grant is revoked, and this
// layer buys it back — paying in *measured* messages.  Per directed link it
// keeps classic ARQ state:
//
//   * every logical send becomes a sequenced kChannel data frame wrapping
//     the encoded protocol message (the header is on the wire, so the
//     overhead is measured, not claimed);
//   * the receiver suppresses duplicate frames (fault-injected copies and
//     retransmissions alike), releases frames in sequence order — restoring
//     FIFO over reordering delay adversaries — and answers every arrival
//     with a cumulative ack;
//   * the sender retransmits an unacked frame on a timeout that backs off
//     exponentially (initial_rto, doubling up to max_rto) plus a
//     deterministic per-attempt jitter — a pure hash of (link, seq,
//     attempt), so replays stay byte-identical but the backoff clock can
//     never phase-lock onto a periodic adversary (sim/crash.hpp windows)
//     — and gives up — loudly, with an InvariantError — after max_retries
//     attempts.
//
// Acks themselves ride the same faulty transport unprotected: a lost ack is
// repaired by the retransmission it provokes (the duplicate is suppressed
// and re-acked).  When the network is not lossy the channel is a strict
// passthrough: no header, no acks, no timers — a run with fault rates at
// zero is bit-identical to a run without the channel (asserted by tests).
//
// Charging: a data frame is accounted under its *inner* message's kind (a
// retransmitted agent hop is agent traffic, at its true wrapped size), so
// the per-kind NetStats decomposition exp9/exp13 report stays honest under
// faults; only acks appear under the kChannel kind.
//
// Layout (allocation-free once warm): each directed link is looked up once
// per logical send, and its stable address rides the frame, timer and ack
// continuations.  A link's unacked frames are exactly the sequence window
// [acked, next_seq) — acks are cumulative — kept as a power-of-two ring of
// indices into one channel-wide slab of pending frames.  Slab slots recycle
// through a free list, and each keeps its frame's payload buffer, into
// which the next inner message is encoded in place.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/network.hpp"

namespace dyncon::sim {

/// Retransmission tuning.  The defaults suit the canonical sweep policies
/// (delays up to HeavyTailDelay's 256-tick cap, stalls up to 48 ticks):
/// generous enough that a fault-free link never times out, tight enough
/// that the chaos soak converges quickly.
struct ChannelConfig {
  SimTime initial_rto = 512;      ///< first retransmit timeout (> worst RTT)
  SimTime max_rto = 8192;         ///< exponential backoff cap
  std::uint32_t max_retries = 40; ///< per frame; exceeding aborts the run
};

/// Cumulative channel-layer counters (per channel instance; merge sums a
/// sweep the way NetStats::merge does).
struct ChannelStats {
  std::uint64_t data_frames = 0;           ///< first transmissions
  std::uint64_t retransmits = 0;           ///< timeout-driven resends
  std::uint64_t acks = 0;                  ///< cumulative acks sent
  std::uint64_t duplicates_suppressed = 0; ///< receiver-side drops of copies
  std::uint64_t held_for_order = 0;        ///< frames buffered for FIFO release
  bool operator==(const ChannelStats&) const = default;

  void merge(const ChannelStats& other);
  [[nodiscard]] std::string str() const;
};

class ReliableChannel {
 public:
  explicit ReliableChannel(Network& net, ChannelConfig cfg = ChannelConfig{});

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Send `msg` from `from` to `to` with reliable-FIFO semantics;
  /// `on_deliver` fires exactly once, after every earlier send on the same
  /// directed link has been delivered.  Passthrough when the network is not
  /// lossy.
  void send(NodeId from, NodeId to, const Message& msg,
            Network::Deliver on_deliver);

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] const ChannelConfig& config() const { return cfg_; }
  /// Frames sent but not yet cumulatively acked (drains to 0 at quiescence).
  [[nodiscard]] std::size_t in_flight() const;

 private:
  /// One unacked data frame: a slab slot, reused once its ack lands.
  struct Pending {
    Message frame{ChannelMsg{}};  ///< the kChannel data frame, for retransmits
    Network::Deliver deliver;     ///< consumed when the frame is released
    SimTime rto = 0;
    std::uint32_t retries = 0;
    bool delivered = false;       ///< arrived at the receiver (maybe held)
    bool released = false;        ///< deliver() has run
  };
  /// Per directed (from, to) link: sender and receiver ends of the ARQ
  /// state live side by side because the simulator plays both parties.
  struct Link {
    NodeId from = 0;
    NodeId to = 0;
    std::uint64_t next_seq = 0;   ///< sender: next sequence to assign
    std::uint64_t acked = 0;      ///< sender: every lower seq is acked
    std::uint64_t recv_next = 0;  ///< receiver: next sequence to release
    /// Slab slot of each seq in [acked, next_seq), at seq & (size - 1).
    std::vector<std::uint32_t> window;
  };
  struct LinkHash {
    std::size_t operator()(const std::pair<NodeId, NodeId>& k) const;
  };

  /// The pending frame of `seq` on `link`, or nullptr once it is acked.
  [[nodiscard]] Pending* find(Link& link, std::uint64_t seq);
  void transmit(Link& link, std::uint64_t seq);
  void arm_timer(Link& link, std::uint64_t seq);
  void on_timeout(Link& link, std::uint64_t seq);
  void on_frame(Link& link, std::uint64_t seq);
  void release_in_order(Link& link);
  void send_ack(Link& link);
  void on_ack(Link& link, std::uint64_t upto);

  Network& net_;
  ChannelConfig cfg_;
  /// Node-based, so a Link's address is stable for the channel's lifetime.
  std::unordered_map<std::pair<NodeId, NodeId>, Link, LinkHash> links_;
  std::vector<Pending> slab_;
  std::vector<std::uint32_t> free_;  ///< recycled slab slots
  ChannelStats stats_;
};

}  // namespace dyncon::sim
