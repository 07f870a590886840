#pragma once

// Bit-accurate wire format for every message the simulator carries.
//
// The paper's O(log N)-bit message-size claim (§2.1.1, Lemma 4.5) used to be
// "verified" against bit counts each sender self-reported.  This layer makes
// the sizes measurements instead: senders construct a typed `Message`, the
// transport encodes it with the bit-level codec below and charges the
// *measured* size.  A field a protocol forgot to pay for now shows up in the
// encoder, not in a hand-maintained formula.
//
// Codec conventions:
//   * Elias-gamma for order-statistics fields (distances, counts, levels):
//     encoding v costs 2*floor(log2(v+1)) + 1 bits — self-delimiting and
//     O(log v), exactly the shape Lemma 4.5 budgets for.
//   * LEB128-style varint (7-bit groups, MSB-first groups, continuation
//     bit) for identifier fields (agent ids, label counters) that are dense
//     near zero but unbounded.
//   * fixed-width bit fields for small closed enums (message tag, topic,
//     phase) and flags.
//
// Every message is one of six tagged variants, one per `MsgKind`, so the
// per-kind accounting in `NetStats` decomposes the paper's cost terms.  In
// debug builds `Network::send` decodes every encoded message back and
// compares it to the original, so an encode/decode asymmetry fails loudly
// at the send site.

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "util/error.hpp"
#include "util/ids.hpp"

namespace dyncon::sim {

/// The c1 + c2*ceil(log2 U) message-size envelope the benches arm strict
/// mode with (§2.1.1, Lemma 4.5).  The additive term covers tag/topic/flag
/// bits and the self-delimiting-code constants, so only a genuinely
/// super-logarithmic field can trip it.
[[nodiscard]] constexpr std::uint64_t size_envelope_bits(std::uint64_t u) {
  const std::uint64_t log_u = u < 2 ? 1 : std::bit_width(u - 1);
  return 32 + 8 * log_u;
}

/// Accounting category of a message; the paper's bounds decompose by these.
enum class MsgKind : std::uint8_t {
  kAgent,       ///< request-handling agent hop (the dominant cost term)
  kReject,      ///< reject-wave flooding (O(U) total)
  kControl,     ///< broadcast/upcast for iteration management (Obs. 2.1, App. A)
  kDataMove,    ///< graceful-deletion data handoff to parent
  kApp,         ///< application-layer traffic (DFS relabeling, estimates, ...)
  kChannel,     ///< reliable-channel control traffic (acks; see sim/channel.hpp)
  kKindCount__  ///< sentinel
};

/// Human-readable kind name; returns "invalid" for the sentinel and for any
/// out-of-range byte (a corrupted tag must not crash the formatter).
[[nodiscard]] const char* msg_kind_name(MsgKind kind);

/// Prints the kind name (plus the raw byte for invalid values) so failing
/// test expectations show "control", not an unprintable raw byte.
std::ostream& operator<<(std::ostream& os, MsgKind kind);

// ---- bit stream -------------------------------------------------------------

/// An encoded message: `bits` valid bits, MSB-first, in `bytes`.  Unused
/// trailing bits of the last byte are always zero (BitWriter only ever sets
/// bits it was given), so byte-wise equality is bit-stream equality.
struct Encoded {
  std::vector<std::uint8_t> bytes;
  std::uint64_t bits = 0;
  bool operator==(const Encoded&) const = default;
};

/// Width of the leading kind tag on every wire message (3 bits: 6 kinds).
inline constexpr std::uint32_t kMsgTagBits = 3;

/// Exact bit cost of the Elias-gamma code for `v` (see BitWriter::put_gamma).
[[nodiscard]] constexpr std::uint64_t gamma_bits(std::uint64_t v) {
  return 2 * static_cast<std::uint64_t>(std::bit_width(v + 1) - 1) + 1;
}

/// Exact bit cost of the varint code for `v` (see BitWriter::put_varint).
[[nodiscard]] constexpr std::uint64_t varint_bits(std::uint64_t v) {
  std::uint64_t groups = 1;
  for (std::uint64_t rest = v >> 7; rest != 0; rest >>= 7) ++groups;
  return 8 * groups;
}

/// Append-only bit stream writer (MSB-first within each byte).  Every field
/// is written a byte at a time: it tops up the partial last byte, appends
/// whole bytes, then opens a new partial byte.
class BitWriter {
 public:
  BitWriter() = default;
  /// Pre-sizes the output buffer for an expected encoding of `expected_bits`
  /// bits (e.g., the size_envelope_bits(u) hint, or an exact BitCounter
  /// pass), so the buffer never regrows mid-encode.
  explicit BitWriter(std::uint64_t expected_bits) {
    out_.bytes.reserve((expected_bits + 7) / 8);
  }
  /// Adopts `reuse`'s byte buffer (cleared, capacity kept): a caller that
  /// round-trips the same Encoded through repeated encode cycles reaches an
  /// allocation-free steady state (forest hibernation does exactly this).
  explicit BitWriter(Encoded&& reuse) : out_(std::move(reuse)) {
    out_.bytes.clear();
    out_.bits = 0;
  }

  void put_bit(bool bit);
  /// Appends the low `width` bits of `value`, most significant first.
  void put_bits(std::uint64_t value, std::uint32_t width);
  /// Elias-gamma code of v+1 (so v = 0 is representable); v < 2^62.
  void put_gamma(std::uint64_t v);
  /// 7-bit-group varint with continuation bits, high groups first.
  void put_varint(std::uint64_t v);
  /// Appends `n` zero bits (opaque payload whose size must be paid for).
  void pad_zeros(std::uint64_t n);
  /// Appends all of `src`, MSB-first (channel frames embed inner messages).
  void put_encoded(const Encoded& src);

  [[nodiscard]] std::uint64_t bit_count() const { return out_.bits; }
  [[nodiscard]] Encoded finish() { return std::move(out_); }

 private:
  /// put_bits without the contract checks: requires width <= 64 and
  /// value < 2^width.
  void append(std::uint64_t value, std::uint32_t width);

  Encoded out_;
};

/// Size-only writer: same interface as BitWriter, but it never touches a
/// byte buffer — it just adds up the exact cost of each field.  Encoding a
/// message through both writers yields bit_count() == Encoded::bits by
/// construction (one shared body-writer template, asserted exhaustively in
/// test_wire.cpp), which is what lets release builds charge measured sizes
/// without materializing a single byte.
class BitCounter {
 public:
  void put_bit(bool) { ++bits_; }
  void put_bits(std::uint64_t value, std::uint32_t width) {
    DYNCON_REQUIRE(width <= 64, "bit-field width exceeds 64");
    DYNCON_REQUIRE(width == 64 || value < (std::uint64_t{1} << width),
                   "value does not fit the declared bit-field width");
    bits_ += width;
  }
  void put_gamma(std::uint64_t v) {
    DYNCON_REQUIRE(v < (std::uint64_t{1} << 62), "gamma field overflow");
    bits_ += gamma_bits(v);
  }
  void put_varint(std::uint64_t v) { bits_ += varint_bits(v); }
  void pad_zeros(std::uint64_t n) { bits_ += n; }
  void put_encoded(const Encoded& src) { bits_ += src.bits; }

  [[nodiscard]] std::uint64_t bit_count() const { return bits_; }

 private:
  std::uint64_t bits_ = 0;
};

/// Bounds-checked reader over an `Encoded` buffer.  A field is checked
/// against the remaining bits as a whole before any of it is read, then
/// read a byte at a time.
class BitReader {
 public:
  explicit BitReader(const Encoded& e) : enc_(e) {
    DYNCON_REQUIRE(e.bits <= 8 * e.bytes.size(),
                   "malformed encoding: fewer bytes than bits");
  }

  [[nodiscard]] bool get_bit();
  [[nodiscard]] std::uint64_t get_bits(std::uint32_t width);
  [[nodiscard]] std::uint64_t get_gamma();
  [[nodiscard]] std::uint64_t get_varint();
  void skip(std::uint64_t n);

  [[nodiscard]] std::uint64_t position() const { return pos_; }
  [[nodiscard]] std::uint64_t remaining() const { return enc_.bits - pos_; }
  [[nodiscard]] bool finished() const { return pos_ == enc_.bits; }

 private:
  const Encoded& enc_;
  std::uint64_t pos_ = 0;
};

// ---- typed message bodies ---------------------------------------------------

/// What a kControl message is doing (2-bit field on the wire).
enum class ControlTopic : std::uint8_t {
  kBroadcast,  ///< value pushed down a tree edge (convergecast down, N_i)
  kUpcast,     ///< aggregated value climbing toward the root
  kRotate,     ///< iteration-boundary reset (leftover/iteration count)
  kTerminate,  ///< termination signal + acknowledgement (Obs. 2.1)
};

/// What a kApp message is doing (2-bit field on the wire).
enum class AppTopic : std::uint8_t {
  kToken,    ///< DFS relabeling token (labels, name-assignment ids)
  kReport,   ///< estimate/weight dissemination (w0, child reports)
  kMetered,  ///< foreign payload metered through the controller (§2.2)
};

/// One agent hop (§4.3): the agent state a taxi message must carry.
struct AgentHopMsg {
  std::uint64_t agent = 0;         ///< agent identity (varint)
  std::uint64_t distance = 0;      ///< hops to origin (gamma; <= depth)
  std::uint64_t top_distance = 0;  ///< DistToTop counter (gamma)
  std::uint32_t bag_level = 0;     ///< package level in the Bag (gamma)
  std::uint8_t phase = 0;          ///< protocol phase tag (< 8, 3 bits)
  bool carrying = false;           ///< a package rides in the Bag
  bool operator==(const AgentHopMsg&) const = default;
};

/// One reject-wave fanout step: pure signal, no semantic fields (O(1) bits).
struct RejectWaveMsg {
  bool operator==(const RejectWaveMsg&) const = default;
};

/// One control message carrying a single O(log n)-bit value.
struct ControlMsg {
  ControlTopic topic = ControlTopic::kBroadcast;
  std::uint64_t value = 0;  ///< broadcast/aggregated value (gamma)
  bool operator==(const ControlMsg&) const = default;
};

/// One record of a graceful-deletion data handoff (§4.4.1).
struct DataMoveMsg {
  std::uint64_t item = 0;  ///< id of the node whose data is moving (gamma)
  bool operator==(const DataMoveMsg&) const = default;
};

/// One application message: a value plus an optional opaque payload whose
/// length is encoded (and paid for, bit by bit) on the wire.
struct AppMsg {
  AppTopic topic = AppTopic::kToken;
  std::uint64_t value = 0;        ///< label/estimate value (varint)
  std::uint64_t opaque_bits = 0;  ///< metered foreign payload size (gamma+pad)
  bool operator==(const AppMsg&) const = default;
};

/// What a kChannel frame is doing (1-bit field on the wire).
enum class ChannelTopic : std::uint8_t {
  kData,  ///< a sequenced protocol message riding the reliable channel
  kAck,   ///< cumulative acknowledgement flowing back to the sender
};

/// One reliable-channel frame (sim/channel.hpp).  A data frame carries the
/// *encoded* inner protocol message verbatim plus the channel header
/// (sequence number); an ack carries only the cumulative sequence number.
/// The header overhead is therefore measured on the wire, not claimed.
struct ChannelMsg {
  ChannelTopic topic = ChannelTopic::kAck;
  std::uint64_t seq = 0;  ///< data: frame sequence; ack: next expected (gamma)
  Encoded payload;        ///< data: encoded inner message; ack: empty
  bool operator==(const ChannelMsg&) const = default;

  /// Accounting kind of the wrapped message (the payload's leading tag), so
  /// NetStats can keep charging retransmitted agent hops as agent traffic.
  /// Requires a data frame with a well-formed payload.
  [[nodiscard]] MsgKind inner_kind() const;
};

// ---- the tagged message -----------------------------------------------------

/// A tagged wire message.  The variant order matches `MsgKind`, so the
/// 3-bit wire tag, the variant index, and the accounting kind agree.
class Message {
 public:
  using Body = std::variant<AgentHopMsg, RejectWaveMsg, ControlMsg,
                            DataMoveMsg, AppMsg, ChannelMsg>;

  explicit Message(Body body) : body_(std::move(body)) {}

  static Message agent_hop(std::uint64_t agent, std::uint64_t distance,
                           std::uint64_t top_distance, std::uint32_t bag_level,
                           std::uint8_t phase, bool carrying);
  static Message reject_wave();
  static Message control(ControlTopic topic, std::uint64_t value);
  static Message data_move(std::uint64_t item);
  static Message app_value(AppTopic topic, std::uint64_t value);
  /// A metered foreign payload of `opaque_bits` bits (§2.2 message meter).
  static Message app_payload(std::uint64_t opaque_bits);
  /// A reliable-channel data frame wrapping `inner` (which must not itself
  /// be a channel frame: the channel never nests).
  static Message channel_data(std::uint64_t seq, const Message& inner);
  /// A reliable-channel cumulative ack: every frame with sequence < `seq`
  /// on this link has been delivered.
  static Message channel_ack(std::uint64_t seq);

  [[nodiscard]] MsgKind kind() const {
    return static_cast<MsgKind>(body_.index());
  }
  [[nodiscard]] const Body& body() const { return body_; }
  template <typename T>
  [[nodiscard]] const T& as() const {
    return std::get<T>(body_);
  }

  /// Turns this message into channel_data(seq, inner), encoding `inner`
  /// into the payload buffer this message already holds when it is a
  /// channel frame: a frame that is rewrapped again and again (the ARQ
  /// channel's pending slots) stops allocating once its buffer fits.
  void assign_channel_data(std::uint64_t seq, const Message& inner);

  /// Bit-level encoding; `Encoded::bits` is the measured message size.
  [[nodiscard]] Encoded encode() const;
  /// Same, into `reuse`'s byte buffer (cleared, capacity kept).
  [[nodiscard]] Encoded encode(Encoded&& reuse) const;
  /// Inverse of encode(); throws ContractError on malformed input
  /// (bad tag, truncated fields, trailing bits).
  [[nodiscard]] static Message decode(const Encoded& e);
  /// Measured encoded size in bits, computed by the size-only BitCounter
  /// pass — no byte buffer, no allocation.  Exactly encode().bits (the two
  /// share one body-writer; asserted per kind in test_wire.cpp).
  [[nodiscard]] std::uint64_t encoded_bits() const;
  /// Measured encoded size in bits (alias of encoded_bits()).
  [[nodiscard]] std::uint64_t measured_bits() const { return encoded_bits(); }

  bool operator==(const Message&) const = default;
  [[nodiscard]] std::string str() const;

 private:
  Body body_;
};

}  // namespace dyncon::sim
