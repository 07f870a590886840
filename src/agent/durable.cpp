#include "agent/durable.hpp"

#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "util/error.hpp"

namespace dyncon::agent {

namespace {

constexpr std::uint32_t kSnapshotVersion = 1;

/// Node ids are gamma-coded shifted by one so the kNoNode sentinel (the
/// all-ones id) wraps to 0 — the same trick keeps every real id < 2^62.
template <typename Writer>
void put_node(Writer& w, NodeId v) {
  w.put_gamma(v + 1);
}

NodeId get_node(sim::BitReader& r) { return r.get_gamma() - 1; }

/// One body over both writers (BitWriter materializes, BitCounter only
/// sizes) — the PR-4 discipline that pins board_snapshot_bits() ==
/// encode_board().bits by construction.
template <typename Writer>
void write_board(Writer& w, const BoardSnapshot& b) {
  w.put_bits(kSnapshotVersion, 4);
  w.put_bit(b.locked);
  w.put_bit(b.flooded);
  if (b.locked) w.put_varint(b.locked_by);
  put_node(w, b.down_child);
  w.put_gamma(b.queue.size());
  for (const ParkedAgent& p : b.queue) {
    w.put_varint(p.agent);
    put_node(w, p.came_from);
    put_node(w, p.origin);
    w.put_gamma(p.distance);
    w.put_bits(p.phase, 3);
    w.put_bits(p.req_type, 2);
    put_node(w, p.req_subject);
  }
}

}  // namespace

const char* durability_name(Durability d) {
  switch (d) {
    case Durability::kVolatile:
      return "volatile";
    case Durability::kDurable:
      return "durable";
  }
  return "?";
}

sim::Encoded encode_board(const BoardSnapshot& b) {
  sim::BitWriter w(board_snapshot_bits(b));
  write_board(w, b);
  return w.finish();
}

sim::Encoded encode_board(const BoardSnapshot& b, sim::Encoded&& reuse) {
  sim::BitWriter w(std::move(reuse));
  write_board(w, b);
  return w.finish();
}

std::uint64_t board_snapshot_bits(const BoardSnapshot& b) {
  sim::BitCounter c;
  write_board(c, b);
  return c.bit_count();
}

BoardSnapshot decode_board(const sim::Encoded& e) {
  sim::BitReader r(e);
  DYNCON_REQUIRE(r.get_bits(4) == kSnapshotVersion,
                 "unknown board snapshot version");
  BoardSnapshot b;
  b.locked = r.get_bit();
  b.flooded = r.get_bit();
  b.locked_by = b.locked ? r.get_varint() : kNoAgent;
  b.down_child = get_node(r);
  b.queue.resize(r.get_gamma());
  for (ParkedAgent& p : b.queue) {
    p.agent = r.get_varint();
    p.came_from = get_node(r);
    p.origin = get_node(r);
    p.distance = r.get_gamma();
    p.phase = static_cast<std::uint8_t>(r.get_bits(3));
    p.req_type = static_cast<std::uint8_t>(r.get_bits(2));
    p.req_subject = get_node(r);
  }
  DYNCON_REQUIRE(r.finished(), "trailing bits after board snapshot");
  return b;
}

std::uint64_t board_snapshot_budget_bits(const BoardSnapshot& b,
                                         std::uint64_t n) {
  const std::uint64_t node_ref = ceil_log2(n < 2 ? 2 : n) + 1;
  std::uint64_t bits = 16 + 2 * node_ref + sim::gamma_bits(b.queue.size()) +
                       (b.locked ? sim::varint_bits(b.locked_by) : 0);
  for (const ParkedAgent& p : b.queue) {
    bits += sim::varint_bits(p.agent) + 2 * parked_agent_model_bits(n);
  }
  return bits;
}

DurableStore::DurableStore(Provider provider)
    : provider_(std::move(provider)) {
  DYNCON_REQUIRE(static_cast<bool>(provider_), "DurableStore needs a provider");
}

DurableStore::DurableStore(std::function<BoardSnapshot(NodeId)> provider) {
  DYNCON_REQUIRE(static_cast<bool>(provider), "DurableStore needs a provider");
  provider_ = [p = std::move(provider)](NodeId v, BoardSnapshot& out) {
    out = p(v);
  };
}

void DurableStore::persist(NodeId v) {
  provider_(v, scratch_);
  if (v >= slots_.size()) {
    slots_.resize(v + 1);
    present_.resize(v + 1, false);
  }
  sim::Encoded& slot = slots_[v];
  slot = encode_board(scratch_, std::move(slot));
  present_[v] = true;
  ++writes_;
  bits_written_ += slot.bits;
  static thread_local obs::CounterHandle writes("recovery.snapshot_writes");
  writes.add();
  static thread_local obs::CounterHandle bits("recovery.snapshot_bits");
  bits.add(slot.bits);
  if (net_ != nullptr) net_->charge(sim::Message::app_payload(slot.bits), 1);
}

void DurableStore::erase(NodeId v) {
  if (v >= present_.size()) return;
  present_[v] = false;
  slots_[v] = sim::Encoded{};
}

bool DurableStore::has(NodeId v) const {
  return v < present_.size() && present_[v];
}

BoardSnapshot DurableStore::restore(NodeId v) const {
  DYNCON_REQUIRE(has(v), "restore of a node with no snapshot");
  return decode_board(slots_[v]);
}

}  // namespace dyncon::agent
