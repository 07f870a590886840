#include "sim/channel.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dyncon::sim {

namespace {

// The stable-coin idiom (fault.cpp): retransmit jitter is a pure function
// of (link, seq, attempt), so replays stay byte-identical and no RNG draw
// order is perturbed — yet no backoff clock can phase-lock onto a periodic
// adversary.  Without it, a crash window whose period divides the capped
// RTO eats every retry of an unlucky frame (the retransmits land at the
// same phase offset forever) and the channel falsely declares the link
// dead.
std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

SimTime retransmit_jitter(NodeId from, NodeId to, std::uint64_t seq,
                          std::uint64_t attempt, SimTime rto) {
  const std::uint64_t h =
      mix(mix(from ^ 0x6a09e667f3bcc909ULL) ^ mix(to ^ 0xbb67ae8584caa73bULL) ^
          (seq << 17) ^ attempt);
  return h % (rto / 2 + 1);  // in [0, rto/2]: lengthens, never shortens
}

/// Initial capacity of a link's window ring; a burst beyond it doubles it.
constexpr std::size_t kInitialWindow = 8;

}  // namespace

void ChannelStats::merge(const ChannelStats& other) {
  data_frames += other.data_frames;
  retransmits += other.retransmits;
  acks += other.acks;
  duplicates_suppressed += other.duplicates_suppressed;
  held_for_order += other.held_for_order;
}

std::string ChannelStats::str() const {
  std::ostringstream os;
  os << "data=" << data_frames << " retransmits=" << retransmits
     << " acks=" << acks << " dups_suppressed=" << duplicates_suppressed
     << " held=" << held_for_order;
  return os.str();
}

ReliableChannel::ReliableChannel(Network& net, ChannelConfig cfg)
    : net_(net), cfg_(cfg) {
  DYNCON_REQUIRE(cfg.initial_rto >= 1 && cfg.max_rto >= cfg.initial_rto,
                 "bad retransmission timeout range");
  DYNCON_REQUIRE(cfg.max_retries >= 1, "need at least one retry");
}

std::size_t ReliableChannel::LinkHash::operator()(
    const std::pair<NodeId, NodeId>& k) const {
  return static_cast<std::size_t>(
      mix(k.first * 0x9e3779b97f4a7c15ULL ^ k.second));
}

std::size_t ReliableChannel::in_flight() const {
  std::size_t n = 0;
  for (const auto& [key, link] : links_) n += link.next_seq - link.acked;
  return n;
}

ReliableChannel::Pending* ReliableChannel::find(Link& link, std::uint64_t seq) {
  if (seq < link.acked || seq >= link.next_seq) return nullptr;
  return &slab_[link.window[seq & (link.window.size() - 1)]];
}

void ReliableChannel::send(NodeId from, NodeId to, const Message& msg,
                           Network::Deliver on_deliver) {
  DYNCON_REQUIRE(static_cast<bool>(on_deliver), "null delivery handler");
  if (!net_.lossy()) {
    // Zero-overhead passthrough: no header, no seq, no timer — the run is
    // bit-identical to one without the channel.
    net_.transmit(from, to, msg, std::move(on_deliver));
    return;
  }
  const auto [it, fresh] = links_.try_emplace({from, to});
  Link& link = it->second;
  if (fresh) {
    link.from = from;
    link.to = to;
    link.window.resize(kInitialWindow);
  }
  if (link.next_seq - link.acked == link.window.size()) {
    // The window ring is full: double it, re-seating every unacked seq.
    std::vector<std::uint32_t> wider(2 * link.window.size());
    for (std::uint64_t s = link.acked; s < link.next_seq; ++s) {
      wider[s & (wider.size() - 1)] = link.window[s & (link.window.size() - 1)];
    }
    link.window.swap(wider);
  }
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  const std::uint64_t seq = link.next_seq++;
  link.window[seq & (link.window.size() - 1)] = slot;
  Pending& p = slab_[slot];
  p.frame.assign_channel_data(seq, msg);
  p.deliver = std::move(on_deliver);
  p.rto = cfg_.initial_rto;
  p.retries = 0;
  p.delivered = false;
  p.released = false;
  static thread_local obs::CounterHandle data_frames("channel.data_frames");
  ++stats_.data_frames;
  data_frames.add();
  transmit(link, seq);
  arm_timer(link, seq);
}

void ReliableChannel::transmit(Link& link, std::uint64_t seq) {
  net_.transmit(link.from, link.to, find(link, seq)->frame,
                [this, lp = &link, seq] { on_frame(*lp, seq); });
}

void ReliableChannel::arm_timer(Link& link, std::uint64_t seq) {
  const Pending& p = *find(link, seq);
  const SimTime rto =
      p.rto + retransmit_jitter(link.from, link.to, seq, p.retries, p.rto);
  net_.queue().schedule_after(
      rto, [this, lp = &link, seq] { on_timeout(*lp, seq); });
}

void ReliableChannel::on_timeout(Link& link, std::uint64_t seq) {
  Pending* p = find(link, seq);
  if (p == nullptr) return;  // acked; stale timer
  if (p->retries >= cfg_.max_retries) {
    obs::count("channel.gave_up");
    throw InvariantError(
        "reliable channel gave up: frame seq=" + std::to_string(seq) +
        " on link " + std::to_string(link.from) + " -> " +
        std::to_string(link.to) + " unacked after " +
        std::to_string(p->retries) +
        " retransmissions — link dead beyond the configured retry cap");
  }
  ++p->retries;
  p->rto = std::min(p->rto * 2, cfg_.max_rto);
  static thread_local obs::CounterHandle retransmits("channel.retransmits");
  ++stats_.retransmits;
  retransmits.add();
  transmit(link, seq);
  arm_timer(link, seq);
}

void ReliableChannel::on_frame(Link& link, std::uint64_t seq) {
  // Everything below — releasing held frames back to back, then the ack
  // transmit — is transport work still owed by THIS event, so the released
  // continuations run under guarded dispatch: an inline fast path jumping
  // ahead of the remaining releases (or of the ack's delay/fault draws)
  // would diverge from the unbatched schedule.
  ++net_.guard_depth_;
  struct Guard {
    std::uint32_t& d;
    ~Guard() { --d; }
  } guard{net_.guard_depth_};
  Pending* p = find(link, seq);
  if (p == nullptr || p->delivered) {
    // A fault-injected copy, or a retransmission of something already
    // received (its ack was lost or is still in flight).  Suppress, and
    // re-ack so the sender can stop retransmitting.
    static thread_local obs::CounterHandle suppressed(
        "channel.duplicates_suppressed");
    ++stats_.duplicates_suppressed;
    suppressed.add();
    send_ack(link);
    return;
  }
  p->delivered = true;
  if (seq != link.recv_next) {
    // Arrived ahead of a gap (the underlying links are not FIFO and may
    // have dropped the earlier frame); hold until the gap fills.
    static thread_local obs::CounterHandle held("channel.held_for_order");
    ++stats_.held_for_order;
    held.add();
  }
  release_in_order(link);
  send_ack(link);
}

void ReliableChannel::release_in_order(Link& link) {
  for (Pending* p = find(link, link.recv_next); p != nullptr && p->delivered;
       p = find(link, link.recv_next)) {
    DYNCON_INVARIANT(!p->released, "frame released twice");
    p->released = true;
    ++link.recv_next;
    Network::Deliver deliver = std::move(p->deliver);
    // The slot stays until the cumulative ack lands back at the sender
    // (it still backs duplicate suppression and the retransmit timer).
    // deliver() may send again and grow the slab, so p is looked up anew.
    deliver();
  }
}

void ReliableChannel::send_ack(Link& link) {
  const std::uint64_t upto = link.recv_next;
  static thread_local obs::CounterHandle acks("channel.acks");
  ++stats_.acks;
  acks.add();
  // Acks ride the faulty transport unprotected (no ack-of-ack): a lost ack
  // is repaired by the retransmission it provokes.
  net_.transmit(link.to, link.from, Message::channel_ack(upto),
                [this, lp = &link, upto] { on_ack(*lp, upto); });
}

void ReliableChannel::on_ack(Link& link, std::uint64_t upto) {
  for (; link.acked < upto; ++link.acked) {
    const std::uint32_t slot =
        link.window[link.acked & (link.window.size() - 1)];
    DYNCON_INVARIANT(slab_[slot].released,
                     "cumulative ack covers an unreleased frame");
    free_.push_back(slot);
  }
}

}  // namespace dyncon::sim
