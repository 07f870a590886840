// Unit tests for the bit-level wire format (sim/wire.hpp): the bit stream
// primitives, the per-variant codecs (exact sizes and random round trips),
// and the measured-size accounting in Network/NetStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "sim/wire.hpp"
#include "util/log2.hpp"
#include "util/rng.hpp"

namespace dyncon::sim {
namespace {

// ---- bit stream primitives --------------------------------------------------

TEST(BitStream, BitsRoundTripMsbFirst) {
  BitWriter w;
  w.put_bits(0b1011, 4);
  w.put_bit(true);
  w.put_bits(0x1234'5678'9abc'def0ULL, 64);
  const Encoded e = w.finish();
  EXPECT_EQ(e.bits, 4u + 1u + 64u);
  BitReader r(e);
  EXPECT_EQ(r.get_bits(4), 0b1011u);
  EXPECT_TRUE(r.get_bit());
  EXPECT_EQ(r.get_bits(64), 0x1234'5678'9abc'def0ULL);
  EXPECT_TRUE(r.finished());
}

TEST(BitStream, FirstBitIsByteMsb) {
  BitWriter w;
  w.put_bit(true);
  const Encoded e = w.finish();
  ASSERT_EQ(e.bytes.size(), 1u);
  EXPECT_EQ(e.bytes[0], 0x80u);
}

TEST(BitStream, GammaCostMatchesFormula) {
  // Elias-gamma of v encodes v+1: 2*floor(log2(v+1)) + 1 bits.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 7ull, 100ull, 1ull << 20,
                          (1ull << 62) - 1}) {
    BitWriter w;
    w.put_gamma(v);
    const Encoded e = w.finish();
    EXPECT_EQ(e.bits, 2 * floor_log2(v + 1) + 1) << "v=" << v;
    BitReader r(e);
    EXPECT_EQ(r.get_gamma(), v);
    EXPECT_TRUE(r.finished());
  }
}

TEST(BitStream, GammaRejectsOverflow) {
  BitWriter w;
  EXPECT_THROW(w.put_gamma(std::uint64_t{1} << 62), ContractError);
  EXPECT_THROW(w.put_gamma(kNoNode), ContractError);  // 2^64 - 1
}

TEST(BitStream, VarintCostIsEightBitsPerGroup) {
  const struct {
    std::uint64_t v;
    std::uint64_t bits;
  } cases[] = {{0, 8},        {127, 8},          {128, 16},
               {(1ull << 14) - 1, 16}, {1ull << 14, 24}, {UINT64_MAX, 80}};
  for (const auto& c : cases) {
    BitWriter w;
    w.put_varint(c.v);
    const Encoded e = w.finish();
    EXPECT_EQ(e.bits, c.bits) << "v=" << c.v;
    BitReader r(e);
    EXPECT_EQ(r.get_varint(), c.v);
  }
}

TEST(BitStream, ReaderUnderrunThrows) {
  BitWriter w;
  w.put_bits(3, 2);
  const Encoded e = w.finish();
  BitReader r(e);
  EXPECT_THROW((void)r.get_bits(3), ContractError);
  BitReader r2(e);
  EXPECT_THROW(r2.skip(3), ContractError);
}

TEST(BitStream, MalformedGammaPrefixThrows) {
  BitWriter w;
  w.pad_zeros(64);  // a gamma code may never have 63+ leading zeros
  const Encoded e = w.finish();
  BitReader r(e);
  EXPECT_THROW((void)r.get_gamma(), ContractError);
}

/// Ten varint groups: `lead` (with its continuation bit), eight zero
/// groups, and a last zero group.
void put_ten_group_varint(BitWriter& w, std::uint64_t lead) {
  w.put_bits(0x80 | lead, 8);
  for (int g = 0; g < 8; ++g) w.put_bits(0x80, 8);
  w.put_bits(0x00, 8);
}

TEST(BitStream, VarintRejectsValuesBeyond64Bits) {
  // Ten groups carry 70 bits, so the leading group of a 10-group varint
  // may hold bit 63 alone: 1 is its largest legal value.
  BitWriter ok;
  put_ten_group_varint(ok, 1);
  const Encoded top = ok.finish();
  BitReader r(top);
  EXPECT_EQ(r.get_varint(), std::uint64_t{1} << 63);
  for (std::uint64_t lead : {2u, 3u, 0x40u, 0x7Fu}) {
    BitWriter w;
    put_ten_group_varint(w, lead);
    const Encoded e = w.finish();
    BitReader bad(e);
    EXPECT_THROW((void)bad.get_varint(), ContractError) << "lead=" << lead;
  }
  // The same overflow inside a message: an agent hop whose id varint
  // leads with 0x7F once decoded as agent 2^63.
  BitWriter m;
  m.put_bits(static_cast<std::uint64_t>(MsgKind::kAgent), kMsgTagBits);
  put_ten_group_varint(m, 0x7F);
  m.put_gamma(1);
  m.put_gamma(2);
  m.put_gamma(0);
  m.put_bits(1, 3);
  m.put_bit(false);
  EXPECT_THROW((void)Message::decode(m.finish()), ContractError);
}

TEST(BitStream, ReaderRejectsBitsBeyondItsBytes) {
  Encoded e;
  e.bytes = {0xFF};
  e.bits = 9;
  EXPECT_THROW(BitReader r(e), ContractError);
  BitWriter w;
  EXPECT_THROW(w.put_encoded(e), ContractError);
}

// ---- byte-wise codec against a bit-at-a-time reference ----------------------

/// The one-bit-per-call writer: every field reduces to put_bit, the
/// definition of the MSB-first stream the byte-wise BitWriter must match.
class RefWriter {
 public:
  void put_bit(bool bit) {
    if (out_.bits % 8 == 0) out_.bytes.push_back(0);
    if (bit) {
      out_.bytes.back() |= static_cast<std::uint8_t>(0x80u >> (out_.bits % 8));
    }
    ++out_.bits;
  }
  void put_bits(std::uint64_t v, std::uint32_t width) {
    for (std::uint32_t i = width; i-- > 0;) put_bit((v >> i) & 1u);
  }
  void put_gamma(std::uint64_t v) {
    const std::uint64_t n = v + 1;
    const auto len = static_cast<std::uint32_t>(std::bit_width(n) - 1);
    for (std::uint32_t i = 0; i < len; ++i) put_bit(false);
    put_bits(n, len + 1);
  }
  void put_varint(std::uint64_t v) {
    std::uint32_t groups = 1;
    for (std::uint64_t rest = v >> 7; rest != 0; rest >>= 7) ++groups;
    for (std::uint32_t g = groups; g-- > 0;) {
      put_bit(g != 0);
      put_bits((v >> (7 * g)) & 0x7Fu, 7);
    }
  }
  void pad_zeros(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) put_bit(false);
  }
  void put_encoded(const Encoded& src) {
    for (std::uint64_t i = 0; i < src.bits; ++i) {
      put_bit((src.bytes[i / 8] >> (7 - i % 8)) & 1u);
    }
  }
  [[nodiscard]] const Encoded& out() const { return out_; }

 private:
  Encoded out_;
};

/// One writer call, recorded so the stream can be read back.
struct CodecOp {
  enum Kind { kBit, kBits, kGamma, kVarint, kPad, kEncoded } kind = kBit;
  std::uint64_t value = 0;  ///< the bit/field/gamma/varint value, pad length
  std::uint32_t width = 0;  ///< kBits only
  Encoded payload;          ///< kEncoded only
};

CodecOp random_op(Rng& rng) {
  CodecOp op;
  op.kind = static_cast<CodecOp::Kind>(rng.uniform(0, 5));
  switch (op.kind) {
    case CodecOp::kBit:
      op.value = rng.uniform(0, 1);
      break;
    case CodecOp::kBits:
      op.width = static_cast<std::uint32_t>(rng.uniform(0, 64));
      op.value = op.width == 0 ? 0 : rng.next() >> (64 - op.width);
      break;
    case CodecOp::kGamma:  // up to 2^62 - 1, the codec's gamma limit
      op.value = rng.next() >> rng.uniform(2, 63);
      break;
    case CodecOp::kVarint:  // up to 2^64 - 1
      op.value = rng.next() >> rng.uniform(0, 63);
      break;
    case CodecOp::kPad:
      op.value = rng.uniform(0, 80);
      break;
    case CodecOp::kEncoded: {
      RefWriter src;
      for (std::uint64_t n = rng.uniform(0, 100); n > 0; --n) {
        src.put_bit(rng.chance(0.5));
      }
      op.payload = src.out();
      break;
    }
  }
  return op;
}

template <class Writer>
void apply(Writer& w, const CodecOp& op) {
  switch (op.kind) {
    case CodecOp::kBit:
      w.put_bit(op.value != 0);
      break;
    case CodecOp::kBits:
      w.put_bits(op.value, op.width);
      break;
    case CodecOp::kGamma:
      w.put_gamma(op.value);
      break;
    case CodecOp::kVarint:
      w.put_varint(op.value);
      break;
    case CodecOp::kPad:
      w.pad_zeros(op.value);
      break;
    case CodecOp::kEncoded:
      w.put_encoded(op.payload);
      break;
  }
}

/// Reads `bits` bits in fields of at most 64 and compares them with `src`.
void expect_span(BitReader& r, const Encoded* src, std::uint64_t bits) {
  std::optional<BitReader> s;
  if (src != nullptr) s.emplace(*src);
  for (std::uint64_t left = bits; left > 0;) {
    const auto chunk =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(left, 64));
    const std::uint64_t got = r.get_bits(chunk);
    EXPECT_EQ(got, s ? s->get_bits(chunk) : 0u);
    left -= chunk;
  }
}

void read_back(BitReader& r, const std::vector<CodecOp>& ops) {
  for (const CodecOp& op : ops) {
    switch (op.kind) {
      case CodecOp::kBit:
        EXPECT_EQ(r.get_bit(), op.value != 0);
        break;
      case CodecOp::kBits:
        EXPECT_EQ(r.get_bits(op.width), op.value);
        break;
      case CodecOp::kGamma:
        EXPECT_EQ(r.get_gamma(), op.value);
        break;
      case CodecOp::kVarint:
        EXPECT_EQ(r.get_varint(), op.value);
        break;
      case CodecOp::kPad:
        expect_span(r, nullptr, op.value);
        break;
      case CodecOp::kEncoded:
        expect_span(r, &op.payload, op.payload.bits);
        break;
    }
  }
}

TEST(BitStream, ByteWiseCodecMatchesBitAtATimeReference) {
  Rng rng(0xb17b17ULL);
  // Each writer adopts the previous trial's buffer, as the channel's frame
  // slots and the journal's node slots do: stale bytes past the cleared
  // size must never leak into the new stream.
  Encoded reuse;
  for (int trial = 0; trial < 1500; ++trial) {
    std::vector<CodecOp> ops(rng.uniform(1, 16));
    for (CodecOp& op : ops) op = random_op(rng);
    if (trial < 20) {  // the range extremes, at varied alignments
      ops.push_back({CodecOp::kGamma, (std::uint64_t{1} << 62) - 1, 0, {}});
      ops.push_back({CodecOp::kVarint, UINT64_MAX, 0, {}});
      ops.push_back({CodecOp::kBits, UINT64_MAX, 64, {}});
      ops.push_back({CodecOp::kBit, 1, 0, {}});
    }
    BitWriter w(std::move(reuse));
    RefWriter ref;
    for (const CodecOp& op : ops) {
      apply(w, op);
      apply(ref, op);
    }
    const Encoded e = w.finish();
    ASSERT_EQ(e, ref.out()) << "trial " << trial;
    ASSERT_EQ(e.bytes.size(), (e.bits + 7) / 8);
    reuse = e;
    BitReader r(e);
    read_back(r, ops);
    EXPECT_TRUE(r.finished()) << "trial " << trial;
    if (HasFailure()) return;
    // Every truncation must throw, whether the cut also drops the bytes
    // past it or keeps them (the bits after the cut are never read).
    if (trial % 5 != 0) continue;
    for (std::uint64_t cut = 0; cut < e.bits; ++cut) {
      Encoded t = e;
      t.bits = cut;
      if (cut % 2 == 0) t.bytes.resize((cut + 7) / 8);
      BitReader tr(t);
      EXPECT_THROW(read_back(tr, ops), ContractError)
          << "trial " << trial << " cut " << cut << " of " << e.bits;
    }
    if (HasFailure()) return;
  }
}

// ---- message codec ----------------------------------------------------------

TEST(Wire, KindNamesAreDefensive) {
  EXPECT_STREQ(msg_kind_name(MsgKind::kAgent), "agent");
  EXPECT_STREQ(msg_kind_name(MsgKind::kReject), "reject");
  EXPECT_STREQ(msg_kind_name(MsgKind::kControl), "control");
  EXPECT_STREQ(msg_kind_name(MsgKind::kDataMove), "datamove");
  EXPECT_STREQ(msg_kind_name(MsgKind::kApp), "app");
  EXPECT_STREQ(msg_kind_name(MsgKind::kKindCount__), "invalid");
  EXPECT_STREQ(msg_kind_name(static_cast<MsgKind>(200)), "invalid");
}

TEST(Wire, KindStreamInsertion) {
  std::ostringstream os;
  os << MsgKind::kControl << " " << static_cast<MsgKind>(9);
  EXPECT_EQ(os.str(), "control invalid(MsgKind=9)");
}

TEST(Wire, VariantIndexMatchesKind) {
  EXPECT_EQ(Message::agent_hop(0, 0, 0, 0, 0, false).kind(), MsgKind::kAgent);
  EXPECT_EQ(Message::reject_wave().kind(), MsgKind::kReject);
  EXPECT_EQ(Message::control(ControlTopic::kRotate, 1).kind(),
            MsgKind::kControl);
  EXPECT_EQ(Message::data_move(1).kind(), MsgKind::kDataMove);
  EXPECT_EQ(Message::app_value(AppTopic::kToken, 1).kind(), MsgKind::kApp);
  EXPECT_EQ(Message::app_payload(16).kind(), MsgKind::kApp);
}

TEST(Wire, RejectWaveIsTagOnly) {
  EXPECT_EQ(Message::reject_wave().measured_bits(), 3u);
}

TEST(Wire, AppPayloadPaysForEveryOpaqueBit) {
  // Growing the opaque payload by k bits grows the wire size by k plus the
  // (logarithmic) growth of the length field: the padding is really paid.
  const auto p1 = Message::app_payload(1).measured_bits();
  const auto p1000 = Message::app_payload(1000).measured_bits();
  EXPECT_GE(p1000, 1000u);
  EXPECT_GE(p1000 - p1, 999u);
  EXPECT_LE(p1000 - p1, 999u + 24u);
}

TEST(Wire, DecodeRejectsUnknownTag) {
  // Six kinds use tags 0..5 of the 3-bit field; 6 and 7 name no kind and
  // are rejected, bare or followed by well-formed fields.
  ASSERT_EQ(static_cast<std::uint64_t>(MsgKind::kKindCount__), 6u);
  for (std::uint64_t tag = 6; tag < 8; ++tag) {
    BitWriter bare;
    bare.put_bits(tag, kMsgTagBits);
    EXPECT_THROW((void)Message::decode(bare.finish()), ContractError)
        << "tag " << tag;
    BitWriter body;
    body.put_bits(tag, kMsgTagBits);
    body.put_gamma(1);
    body.put_gamma(3);
    body.put_bits(static_cast<std::uint64_t>(MsgKind::kReject), kMsgTagBits);
    EXPECT_THROW((void)Message::decode(body.finish()), ContractError)
        << "tag " << tag;
  }
}

TEST(Wire, DecodeRejectsTrailingBits) {
  Encoded e = Message::reject_wave().encode();
  BitWriter w;
  w.put_bits(static_cast<std::uint64_t>(MsgKind::kReject), 3);
  w.put_bit(false);  // one stray bit
  EXPECT_THROW((void)Message::decode(w.finish()), ContractError);
  EXPECT_EQ(Message::decode(e), Message::reject_wave());
}

TEST(Wire, DecodeRejectsTruncation) {
  Encoded e = Message::control(ControlTopic::kUpcast, 12345).encode();
  e.bits -= 4;  // chop the value's tail
  EXPECT_THROW((void)Message::decode(e), ContractError);
}

TEST(Wire, FactoryContracts) {
  EXPECT_THROW(Message::agent_hop(0, 0, 0, 0, /*phase=*/8, false),
               ContractError);
  EXPECT_THROW(Message::app_value(AppTopic::kMetered, 1), ContractError);
}

// Random round trips per variant, with fields up to the N = 2^20 regime the
// complexity tests exercise (and far beyond, for the unbounded id fields).
TEST(Wire, RandomRoundTripEveryVariant) {
  Rng rng(0xa11ce);
  constexpr std::uint64_t kBig = 1ull << 20;
  for (int i = 0; i < 2000; ++i) {
    std::vector<Message> msgs;
    msgs.push_back(Message::agent_hop(
        rng.uniform(0, UINT64_MAX), rng.uniform(0, kBig),
        rng.uniform(0, kBig), static_cast<std::uint32_t>(rng.uniform(0, 63)),
        static_cast<std::uint8_t>(rng.uniform(0, 7)), rng.chance(0.5)));
    msgs.push_back(Message::reject_wave());
    msgs.push_back(Message::control(
        static_cast<ControlTopic>(rng.uniform(0, 3)), rng.uniform(0, kBig)));
    msgs.push_back(Message::data_move(rng.uniform(0, kBig)));
    msgs.push_back(Message::app_value(
        static_cast<AppTopic>(rng.uniform(0, 1)), rng.uniform(0, UINT64_MAX)));
    msgs.push_back(Message::app_payload(rng.uniform(0, 512)));
    for (const Message& m : msgs) {
      const Encoded e = m.encode();
      EXPECT_EQ(e.bits, m.measured_bits());
      EXPECT_EQ(e.bytes.size(), (e.bits + 7) / 8);
      const Message back = Message::decode(e);
      ASSERT_EQ(back, m) << m.str() << " vs " << back.str();
    }
  }
}

// Message sizes must be O(log N) in every field (Lemma 4.5's budget): a
// doubling of the field value adds O(1) bits.
TEST(Wire, SizesAreLogarithmicInFields) {
  std::uint64_t prev = 0;
  for (std::uint32_t p = 1; p <= 40; ++p) {
    const std::uint64_t n = 1ull << p;
    const auto bits =
        Message::agent_hop(n, n, n, 20, 3, true).measured_bits();
    if (p > 1) EXPECT_LE(bits, prev + 16) << "p=" << p;
    prev = bits;
  }
  EXPECT_LE(Message::control(ControlTopic::kBroadcast, 1ull << 40)
                .measured_bits(),
            3u + 2u + (2 * 40 + 1));
}

// ---- NetStats accounting ----------------------------------------------------

struct NetFixture {
  EventQueue q;
  Network net{q, std::make_unique<FixedDelay>(1)};
};

TEST(NetStats, PerKindCountersAndMaxima) {
  NetFixture f;
  const Message hop = Message::agent_hop(3, 9, 9, 2, 1, true);
  const Message ctrl = Message::control(ControlTopic::kUpcast, 1000);
  f.net.send(0, 1, hop, [] {});
  f.net.send(1, 0, ctrl, [] {});
  f.net.send(0, 1, Message::reject_wave(), [] {});
  const NetStats& s = f.net.stats();
  EXPECT_EQ(s.messages, 3u);
  EXPECT_EQ(s.kind(MsgKind::kAgent), 1u);
  EXPECT_EQ(s.kind(MsgKind::kControl), 1u);
  EXPECT_EQ(s.kind(MsgKind::kReject), 1u);
  EXPECT_EQ(s.kind_bits(MsgKind::kAgent), hop.measured_bits());
  EXPECT_EQ(s.kind_max_bits(MsgKind::kControl), ctrl.measured_bits());
  EXPECT_EQ(s.total_bits, hop.measured_bits() + ctrl.measured_bits() + 3);
  EXPECT_EQ(s.max_message_bits,
            std::max(hop.measured_bits(), ctrl.measured_bits()));
#ifndef NDEBUG
  EXPECT_EQ(s.roundtrip_checks, 3u);
#endif
}

TEST(NetStats, ChargeInteractsWithMaxBits) {
  NetFixture f;
  const Message big = Message::data_move(1ull << 30);
  const Message small = Message::data_move(1);
  f.net.charge(big, 2);
  f.net.charge(small, 5);
  f.net.charge(small, 0);  // a no-op, not a crash
  const NetStats& s = f.net.stats();
  EXPECT_EQ(s.messages, 7u);
  EXPECT_EQ(s.kind(MsgKind::kDataMove), 7u);
  EXPECT_EQ(s.max_message_bits, big.measured_bits());
  EXPECT_EQ(s.kind_max_bits(MsgKind::kDataMove), big.measured_bits());
  EXPECT_EQ(s.total_bits,
            2 * big.measured_bits() + 5 * small.measured_bits());
  EXPECT_TRUE(f.q.empty()) << "charge must not schedule deliveries";
}

TEST(NetStats, HistogramBucketsByBitWidth) {
  NetFixture f;
  const Message wave = Message::reject_wave();  // 3 bits -> bucket 2
  f.net.charge(wave, 4);
  const Message pay = Message::app_payload(100);  // >= 100 bits -> bucket 7
  f.net.send(0, 1, pay, [] {});
  const NetStats& s = f.net.stats();
  EXPECT_EQ(s.size_histogram[2], 4u);
  EXPECT_EQ(s.size_histogram[std::bit_width(pay.measured_bits())], 1u);
  EXPECT_EQ(s.size_histogram[0], 0u);
}

TEST(NetStats, ResetClearsEverything) {
  NetFixture f;
  f.net.send(0, 1, Message::reject_wave(), [] {});
  f.net.charge(Message::data_move(7), 3);
  ASSERT_GT(f.net.stats().messages, 0u);
  f.net.reset_stats();
  const NetStats& s = f.net.stats();
  EXPECT_EQ(s.messages, 0u);
  EXPECT_EQ(s.total_bits, 0u);
  EXPECT_EQ(s.max_message_bits, 0u);
  EXPECT_EQ(s.roundtrip_checks, 0u);
  for (std::size_t k = 0; k < NetStats::kKinds; ++k) {
    EXPECT_EQ(s.by_kind[k], 0u);
    EXPECT_EQ(s.bits_by_kind[k], 0u);
    EXPECT_EQ(s.max_bits_by_kind[k], 0u);
  }
  for (const auto b : s.size_histogram) EXPECT_EQ(b, 0u);
}

TEST(NetStats, StrBreaksDownByKind) {
  NetFixture f;
  f.net.send(0, 1, Message::control(ControlTopic::kBroadcast, 5), [] {});
  const std::string s = f.net.stats().str();
  EXPECT_NE(s.find("control"), std::string::npos) << s;
}

// ---- strict envelope + link check -------------------------------------------

TEST(Network, StrictModeAbortsOnOversize) {
  NetFixture f;
  f.net.set_strict_max_bits(16);
  EXPECT_EQ(f.net.strict_max_bits(), 16u);
  f.net.send(0, 1, Message::reject_wave(), [] {});  // 3 bits: fine
  EXPECT_THROW(f.net.send(0, 1, Message::app_payload(64), [] {}),
               InvariantError);
  EXPECT_THROW(f.net.charge(Message::app_payload(64), 1), InvariantError);
  f.net.set_strict_max_bits(0);  // disabled again
  f.net.send(0, 1, Message::app_payload(64), [] {});
}

// ---- size-only encoding path ------------------------------------------------
//
// encoded_bits() (the BitCounter pass used by release-build accounting) must
// agree with encode().bits (the byte-materializing pass) EXACTLY, for every
// message kind, across the full field ranges — one bit of drift and the
// release build charges different sizes than the debug build measures.

// Mixed-magnitude draws: small values and full-width values both matter for
// gamma/varint length boundaries.  Gamma-encoded fields cap at 2^62 - 1.
std::uint64_t fuzz_value(Rng& rng) {
  return rng.next() >> rng.uniform(0, 63);
}
std::uint64_t fuzz_gamma(Rng& rng) {
  return rng.next() >> rng.uniform(2, 63);
}

void expect_size_only_path_matches(const Message& m) {
  const Encoded enc = m.encode();
  EXPECT_EQ(m.encoded_bits(), enc.bits) << m.str();
  // And the round trip still holds, so both passes describe a real message.
  EXPECT_EQ(Message::decode(enc), m) << m.str();
}

TEST(Wire, EncodedBitsMatchesEncodeForEveryKindFuzzed) {
  Rng rng(0xC0DE);
  bool saw_kind[static_cast<std::size_t>(MsgKind::kKindCount__)] = {};
  auto cover = [&saw_kind](const Message& m) {
    saw_kind[static_cast<std::size_t>(m.kind())] = true;
    expect_size_only_path_matches(m);
    return m;
  };
  for (int i = 0; i < 500; ++i) {
    cover(Message::agent_hop(fuzz_value(rng), fuzz_gamma(rng),
                             fuzz_gamma(rng),
                             static_cast<std::uint32_t>(rng.uniform(0, 1u << 20)),
                             static_cast<std::uint8_t>(rng.uniform(0, 7)),
                             rng.chance(0.5)));
    cover(Message::reject_wave());
    cover(Message::control(static_cast<ControlTopic>(rng.uniform(0, 3)),
                           fuzz_gamma(rng)));
    cover(Message::data_move(fuzz_gamma(rng)));
    cover(Message::app_value(static_cast<AppTopic>(rng.uniform(0, 1)),
                             fuzz_value(rng)));
    cover(Message::app_payload(rng.uniform(0, 300)));  // covers kMetered
    // Channel frames: a data frame wrapping a random inner message (the
    // payload is an embedded Encoded, the case put_encoded must count
    // bit-exactly), and a bare cumulative ack.
    const Message inner =
        rng.chance(0.5)
            ? Message::agent_hop(fuzz_value(rng), fuzz_gamma(rng),
                                 fuzz_gamma(rng), 3, 2, true)
            : Message::app_value(AppTopic::kReport, fuzz_value(rng));
    cover(Message::channel_data(fuzz_gamma(rng), inner));
    cover(Message::channel_ack(fuzz_gamma(rng)));
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(MsgKind::kKindCount__);
       ++k) {
    EXPECT_TRUE(saw_kind[k]) << "kind not fuzzed: "
                             << msg_kind_name(static_cast<MsgKind>(k));
  }
}

#ifndef NDEBUG
TEST(Network, LinkCheckRejectsOffTreeSends) {
  NetFixture f;
  int owner = 0;
  f.net.set_link_check(&owner, [](NodeId from, NodeId to, MsgKind) {
    return from + 1 == to;  // only "adjacent" ids
  });
  f.net.send(4, 5, Message::reject_wave(), [] {});
  EXPECT_THROW(f.net.send(4, 9, Message::reject_wave(), [] {}),
               InvariantError);
  // A different owner must not be able to clear the hook...
  int other = 0;
  f.net.clear_link_check(&other);
  EXPECT_THROW(f.net.send(4, 9, Message::reject_wave(), [] {}),
               InvariantError);
  // ...but the installer can.
  f.net.clear_link_check(&owner);
  f.net.send(4, 9, Message::reject_wave(), [] {});
}
#endif

}  // namespace
}  // namespace dyncon::sim
