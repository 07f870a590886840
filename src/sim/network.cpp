#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "util/error.hpp"

namespace dyncon::sim {

namespace {
/// Maximum deliveries coalesced into one queue event.
constexpr std::size_t kBatchWindow = 16;
}  // namespace

std::string NetStats::str() const {
  std::ostringstream os;
  os << "messages=" << messages << " total_bits=" << total_bits
     << " max_msg_bits=" << max_message_bits;
  for (std::size_t k = 0; k < by_kind.size(); ++k) {
    if (by_kind[k] == 0) continue;
    os << " " << msg_kind_name(static_cast<MsgKind>(k)) << "=" << by_kind[k]
       << "(max " << max_bits_by_kind[k] << "b)";
  }
  return os.str();
}

void NetStats::merge(const NetStats& other) {
  messages += other.messages;
  total_bits += other.total_bits;
  max_message_bits = std::max(max_message_bits, other.max_message_bits);
  roundtrip_checks += other.roundtrip_checks;
  for (std::size_t k = 0; k < kKinds; ++k) {
    by_kind[k] += other.by_kind[k];
    bits_by_kind[k] += other.bits_by_kind[k];
    max_bits_by_kind[k] = std::max(max_bits_by_kind[k],
                                   other.max_bits_by_kind[k]);
  }
  for (std::size_t w = 0; w < size_histogram.size(); ++w) {
    size_histogram[w] += other.size_histogram[w];
  }
}

void FaultStats::merge(const FaultStats& other) {
  drops += other.drops;
  duplicates += other.duplicates;
  stalls += other.stalls;
  stall_ticks += other.stall_ticks;
}

Network::Network(EventQueue& queue, std::unique_ptr<DelayPolicy> delay)
    : queue_(queue), delay_(std::move(delay)) {
  DYNCON_REQUIRE(delay_ != nullptr, "null delay policy");
}

Network::~Network() = default;

void Network::set_fault_policy(std::unique_ptr<FaultPolicy> policy) {
  faults_ = std::move(policy);
}

void Network::enable_reliability() { enable_reliability(ChannelConfig{}); }

void Network::enable_reliability(const ChannelConfig& cfg) {
  if (channel_ == nullptr) {
    channel_ = std::make_unique<ReliableChannel>(*this, cfg);
  }
}

void Network::set_link_check(const void* owner, LinkCheck check) {
  DYNCON_REQUIRE(owner != nullptr && static_cast<bool>(check),
                 "link check needs an owner and a predicate");
  link_check_ = std::move(check);
  link_check_owner_ = owner;
}

void Network::clear_link_check(const void* owner) {
  if (link_check_owner_ != owner) return;  // replaced by a later installer
  link_check_ = nullptr;
  link_check_owner_ = nullptr;
}

void Network::account(MsgKind kind, std::uint64_t bits, std::uint64_t count) {
  if (strict_max_bits_ != 0 && bits > strict_max_bits_) {
    throw InvariantError("oversized message: " + std::to_string(bits) +
                         " bits of " + msg_kind_name(kind) +
                         " exceeds the strict envelope of " +
                         std::to_string(strict_max_bits_) + " bits");
  }
  const auto k = static_cast<std::size_t>(kind);
  stats_.messages += count;
  stats_.total_bits += bits * count;
  stats_.max_message_bits = std::max(stats_.max_message_bits, bits);
  stats_.by_kind[k] += count;
  stats_.bits_by_kind[k] += bits * count;
  stats_.max_bits_by_kind[k] = std::max(stats_.max_bits_by_kind[k], bits);
  stats_.size_histogram[std::bit_width(bits)] += count;
  // Live registry export: cumulative across every Network instance of the
  // run, unlike the per-instance NetStats.  Interned handles: this runs per
  // transmission, and the name->slot map lookup was measurable there.
  static thread_local obs::CounterHandle messages("net.messages");
  static thread_local obs::CounterHandle total_bits("net.total_bits");
  static thread_local obs::HistogramHandle message_bits("net.message_bits");
  messages.add(count);
  total_bits.add(bits * count);
  message_bits.observe(bits, count);
}

void Network::send(NodeId from, NodeId to, const Message& msg,
                   Deliver on_deliver) {
  DYNCON_REQUIRE(static_cast<bool>(on_deliver), "null delivery handler");
#ifndef NDEBUG
  // The topology contract is checked on the *logical* send; channel frames
  // (retransmits can outlive a graceful reparenting, acks flow against the
  // edge direction) are exempt by construction because they route through
  // transmit() directly.
  if (link_check_) {
    DYNCON_INVARIANT(
        link_check_(from, to, msg.kind()),
        "send violates the installed topology contract: " +
            std::to_string(from) + " -> " + std::to_string(to) + " " +
            msg.str());
  }
#endif
  if (channel_ != nullptr && lossy()) {
    channel_->send(from, to, msg, std::move(on_deliver));
    return;
  }
  transmit(from, to, msg, std::move(on_deliver));
}

void Network::transmit(NodeId from, NodeId to, const Message& msg,
                       Deliver on_deliver) {
#ifndef NDEBUG
  // Debug builds do the full byte-level encode and round-trip verification:
  // any field the encoder drops or mangles fails at the send site, with the
  // offending message in the error text.
  const Encoded enc = msg.encode();
  DYNCON_INVARIANT(Message::decode(enc) == msg,
                   "wire round-trip mismatch for " + msg.str());
  ++stats_.roundtrip_checks;
  const std::uint64_t bits = enc.bits;
  // Cross-check the release path's size-only pass against ground truth.
  DYNCON_INVARIANT(msg.encoded_bits() == bits,
                   "encoded_bits() disagrees with encode() for " + msg.str());
#else
  // Release builds take the size-only BitCounter pass — the same
  // body-writer as encode(), so the charged size is still *measured*, just
  // without materializing the byte buffer nobody reads.  (The ARQ channel
  // still builds real frames, encoding each inner message into its pending
  // slot's retained payload buffer.)
  const std::uint64_t bits = msg.encoded_bits();
#endif
  // A channel data frame is charged under the kind of the message it wraps
  // (at the full wrapped size), so the per-kind decomposition exp9/exp13
  // report survives fault injection; only acks land under kChannel.
  MsgKind kind = msg.kind();
  if (kind == MsgKind::kChannel) {
    const auto& ch = msg.as<ChannelMsg>();
    if (ch.topic == ChannelTopic::kData) kind = ch.inner_kind();
  }
  FaultDecision fault;
  if (faults_ != nullptr) {
    fault = faults_->on_send(from, to, kind, seq_, queue_.now());
  }
  // Transmissions are charged whether or not they arrive: a dropped
  // message was sent (and a duplicated one delivered twice), which is
  // exactly the accounting the reliability layer's overhead is measured in.
  account(kind, bits, 1 + fault.duplicates);
  if (fault.duplicates > 0) {
    static thread_local obs::CounterHandle duplicates(
        "faults.injected.duplicate");
    fault_stats_.duplicates += fault.duplicates;
    duplicates.add(fault.duplicates);
  }
  if (fault.stall_ticks > 0) {
    static thread_local obs::CounterHandle stalls("faults.injected.stall");
    static thread_local obs::CounterHandle stall_ticks(
        "faults.injected.stall_ticks");
    ++fault_stats_.stalls;
    fault_stats_.stall_ticks += fault.stall_ticks;
    stalls.add();
    stall_ticks.add(fault.stall_ticks);
  }
  if (fault.drop) {
    static thread_local obs::CounterHandle drops("faults.injected.drop");
    ++fault_stats_.drops;
    drops.add();
    return;
  }
  if (fault.duplicates == 0) {
    // Hot path: exactly one delivery; the continuation moves through
    // untouched — no copy, no allocation.
    const SimTime d = delay_->delay(from, to, seq_++) + fault.stall_ticks;
    deliver_or_batch(from, to, d, std::move(on_deliver));
    return;
  }
  // Cold path (fault-injected copies): several events must share one
  // move-only continuation, so box it once and invoke through the box.
  // Copies are never coalesced — but the scheduling below moves the queue's
  // seq watermark, which closes any open batch automatically.
  const auto shared = std::make_shared<Deliver>(std::move(on_deliver));
  for (std::uint32_t copy = 0; copy <= fault.duplicates; ++copy) {
    const SimTime d = delay_->delay(from, to, seq_++) + fault.stall_ticks;
    queue_.schedule_after(d, [shared] { (*shared)(); });
  }
}

void Network::deliver_or_batch(NodeId from, NodeId to, SimTime delay,
                               Deliver cont) {
  if (!batching_) {
    queue_.schedule_after(delay, std::move(cont));
    return;
  }
  const SimTime when = queue_.now() + delay;
  // Append is legal only when this delivery is provably the immediate
  // (when, seq) successor of the batch's tail: same link, same delivery
  // tick — still strictly in the future, since at `when == now` the head
  // is firing or fired and its slab slot may be recycled — and NOTHING was
  // scheduled since the last append (the queue's seq watermark is
  // untouched, so unbatched seqs would have been consecutive).  Under that
  // condition, running the members back to back inside one queue event IS
  // the unbatched order, exactly.
  if (open_.active && open_.from == from && open_.to == to &&
      open_.when == when && when > queue_.now() &&
      queue_.schedule_seq() == open_.sched_seq) {
    if (open_.upgraded) {
      std::vector<Deliver>& slot = batch_slots_[open_.slot];
      if (slot.size() < kBatchWindow) {
        slot.push_back(std::move(cont));
        return;
      }
      // Window full: fall through to a fresh plain head.
    } else {
      // Second member: upgrade the pending plain head into a batch
      // dispatch.  The head's queue entry keeps its (when, seq) position;
      // only its action is swapped, and the displaced continuation becomes
      // the batch's first member.
      std::uint32_t s;
      if (batch_free_.empty()) {
        s = static_cast<std::uint32_t>(batch_slots_.size());
        batch_slots_.emplace_back();
      } else {
        s = batch_free_.back();
        batch_free_.pop_back();
      }
      std::vector<Deliver>& slot = batch_slots_[s];
      slot.push_back(queue_.replace_action(
          open_.head_slot, EventQueue::Action([this, s] { fire_batch(s); })));
      slot.push_back(std::move(cont));
      open_.upgraded = true;
      open_.slot = s;
      return;
    }
  }
  // Plain head of a (potential) fresh batch: scheduled exactly as an
  // unbatched run would — the dominant never-coalesced case pays only the
  // open-batch bookkeeping below.
  const std::uint32_t head_slot = queue_.schedule_after(delay, std::move(cont));
  open_.active = true;
  open_.upgraded = false;
  open_.from = from;
  open_.to = to;
  open_.when = when;
  open_.sched_seq = queue_.schedule_seq();
  open_.head_slot = head_slot;
}

void Network::fire_batch(std::uint32_t s) {
  // The batch is closed from here on: appends to a firing batch are
  // impossible by construction (the append test requires a future firing
  // tick), but the open_ marker may still point at this slot if nothing
  // was scheduled since the last append.
  if (open_.active && open_.upgraded && open_.slot == s) open_.active = false;
  const std::size_t n = batch_slots_[s].size();
  // Lazy opening guarantees a real batch: it only exists once a
  // second member upgraded the plain head (n==1 deliveries never come
  // through here — they fire as ordinary queue events).
  DYNCON_INVARIANT(n >= 2, "coalesced batch with fewer than two members");
  ++batch_frames_;
  // The n-1 merged members each stand for one unbatched queue pop.
  queue_.count_extra_fired(n - 1);
  // Run the members in append order == the unbatched (when, seq) order.
  // Move the entry vector out first: a continuation may send again and
  // grow batch_slots_, invalidating references into it.
  std::vector<Deliver> run = std::move(batch_slots_[s]);
  // Members run under guarded dispatch: a continuation that wants to inline
  // follow-on work (the controller's grant waves) must not jump ahead of its
  // sibling members — unbatched, they fire first.
  ++guard_depth_;
  for (Deliver& d : run) d();
  --guard_depth_;
  run.clear();
  batch_slots_[s] = std::move(run);  // hand the capacity back
  batch_free_.push_back(s);
}

void Network::charge(const Message& prototype, std::uint64_t count) {
  if (count == 0) return;
#ifndef NDEBUG
  const Encoded enc = prototype.encode();
  DYNCON_INVARIANT(Message::decode(enc) == prototype,
                   "wire round-trip mismatch for " + prototype.str());
  ++stats_.roundtrip_checks;
  DYNCON_INVARIANT(prototype.encoded_bits() == enc.bits,
                   "encoded_bits() disagrees with encode() for " +
                       prototype.str());
  account(prototype.kind(), enc.bits, count);
#else
  account(prototype.kind(), prototype.encoded_bits(), count);
#endif
}

}  // namespace dyncon::sim
