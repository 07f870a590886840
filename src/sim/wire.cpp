#include "sim/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <ostream>
#include <sstream>

#include "util/log2.hpp"

namespace dyncon::sim {

const char* msg_kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::kAgent:
      return "agent";
    case MsgKind::kReject:
      return "reject";
    case MsgKind::kControl:
      return "control";
    case MsgKind::kDataMove:
      return "datamove";
    case MsgKind::kApp:
      return "app";
    case MsgKind::kChannel:
      return "channel";
    case MsgKind::kKindCount__:
      break;
  }
  return "invalid";
}

std::ostream& operator<<(std::ostream& os, MsgKind kind) {
  const char* name = msg_kind_name(kind);
  os << name;
  if (name[0] == 'i') {  // "invalid": show the raw byte too
    os << "(MsgKind=" << static_cast<unsigned>(kind) << ")";
  }
  return os;
}

// ---- BitWriter --------------------------------------------------------------

void BitWriter::put_bit(bool bit) {
  const std::uint64_t offset = out_.bits % 8;
  if (offset == 0) out_.bytes.push_back(0);
  if (bit) out_.bytes.back() |= static_cast<std::uint8_t>(1u << (7 - offset));
  ++out_.bits;
}

void BitWriter::put_bits(std::uint64_t value, std::uint32_t width) {
  DYNCON_REQUIRE(width <= 64, "bit-field width exceeds 64");
  DYNCON_REQUIRE(width == 64 || value < (std::uint64_t{1} << width),
                 "value does not fit the declared bit-field width");
  append(value, width);
}

void BitWriter::append(std::uint64_t value, std::uint32_t width) {
  std::vector<std::uint8_t>& bytes = out_.bytes;
  const auto used = static_cast<std::uint32_t>(out_.bits % 8);
  out_.bits += width;
  if (used != 0) {
    // Top up the partial last byte: its low 8 - used bits are still free.
    const std::uint32_t room = 8 - used;
    if (width <= room) {
      bytes.back() |= static_cast<std::uint8_t>(value << (room - width));
      return;
    }
    width -= room;
    bytes.back() |= static_cast<std::uint8_t>(value >> width);
  }
  // The casts drop the bits above each byte, which are already written.
  for (; width >= 8; width -= 8) {
    bytes.push_back(static_cast<std::uint8_t>(value >> (width - 8)));
  }
  if (width != 0) {
    bytes.push_back(static_cast<std::uint8_t>(value << (8 - width)));
  }
}

void BitWriter::put_gamma(std::uint64_t v) {
  DYNCON_REQUIRE(v < (std::uint64_t{1} << 62), "gamma field overflow");
  const std::uint64_t n = v + 1;
  const std::uint32_t len = floor_log2(n);
  // len zeros, then the len + 1 bits of n: one field while that fits 64.
  if (len <= 31) {
    append(n, 2 * len + 1);
    return;
  }
  pad_zeros(len);
  append(n, len + 1);
}

void BitWriter::put_varint(std::uint64_t v) {
  // High 7-bit groups first, one byte each; every group but the last sets
  // the continuation bit.
  std::uint32_t groups = 1;
  for (std::uint64_t rest = v >> 7; rest != 0; rest >>= 7) ++groups;
  for (std::uint32_t g = groups; g-- > 0;) {
    const std::uint64_t chunk = (v >> (7 * g)) & 0x7Fu;
    append((g != 0 ? 0x80u : 0u) | chunk, 8);
  }
}

void BitWriter::pad_zeros(std::uint64_t n) {
  // resize() zero-fills the new bytes; the free bits of the partial last
  // byte are zero already.
  out_.bits += n;
  out_.bytes.resize((out_.bits + 7) / 8);
}

void BitWriter::put_encoded(const Encoded& src) {
  DYNCON_REQUIRE(src.bits <= 8 * src.bytes.size(),
                 "malformed encoding: fewer bytes than bits");
  const std::uint64_t whole = src.bits / 8;
  if (out_.bits % 8 == 0) {
    out_.bytes.insert(out_.bytes.end(), src.bytes.begin(),
                      src.bytes.begin() + static_cast<std::ptrdiff_t>(whole));
    out_.bits += 8 * whole;
  } else {
    for (std::uint64_t i = 0; i < whole; ++i) append(src.bytes[i], 8);
  }
  if (const auto tail = static_cast<std::uint32_t>(src.bits % 8); tail != 0) {
    append(src.bytes[whole] >> (8 - tail), tail);
  }
}

// ---- BitReader --------------------------------------------------------------

bool BitReader::get_bit() {
  DYNCON_REQUIRE(pos_ < enc_.bits, "wire underrun: read past end of message");
  const std::uint64_t byte = pos_ / 8;
  const std::uint64_t offset = pos_ % 8;
  ++pos_;
  return (enc_.bytes[byte] >> (7 - offset)) & 1u;
}

std::uint64_t BitReader::get_bits(std::uint32_t width) {
  DYNCON_REQUIRE(width <= 64, "bit-field width exceeds 64");
  DYNCON_REQUIRE(width <= remaining(),
                 "wire underrun: read past end of message");
  if (width == 0) return 0;
  const std::uint8_t* p = enc_.bytes.data() + pos_ / 8;
  const auto used = static_cast<std::uint32_t>(pos_ % 8);
  pos_ += width;
  // The first byte contributes its bits from the read position down.
  const std::uint32_t first = 8 - used;
  std::uint64_t v = *p++ & (0xFFu >> used);
  if (width <= first) return v >> (first - width);
  width -= first;
  for (; width >= 8; width -= 8) v = (v << 8) | *p++;
  if (width != 0) v = (v << width) | (*p >> (8 - width));
  return v;
}

std::uint64_t BitReader::get_gamma() {
  // Count the zero prefix a byte at a time, up to the terminating one.
  std::uint32_t len = 0;
  for (;;) {
    DYNCON_REQUIRE(pos_ < enc_.bits,
                   "wire underrun: read past end of message");
    const auto used = static_cast<std::uint32_t>(pos_ % 8);
    const auto avail = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(8 - used, enc_.bits - pos_));
    const auto window = static_cast<std::uint8_t>(enc_.bytes[pos_ / 8] << used);
    const auto zeros = static_cast<std::uint32_t>(std::countl_zero(window));
    const bool found = zeros < avail;
    const std::uint32_t run = found ? zeros : avail;
    len += run;
    pos_ += run;
    DYNCON_REQUIRE(len < 63, "malformed gamma code: runaway zero prefix");
    if (found) break;
  }
  return get_bits(len + 1) - 1;  // the one bit and the len bits below it
}

std::uint64_t BitReader::get_varint() {
  std::uint64_t v = 0;
  for (std::uint32_t groups = 0;; ++groups) {
    DYNCON_REQUIRE(groups < 10, "malformed varint: too many groups");
    const std::uint64_t group = get_bits(8);
    // Shifting in another group must not push read bits out of the top:
    // the leading group of a 10-group varint holds bit 63 alone.
    DYNCON_REQUIRE(v >> 57 == 0, "malformed varint: value exceeds 64 bits");
    v = (v << 7) | (group & 0x7Fu);
    if ((group & 0x80u) == 0) return v;
  }
}

void BitReader::skip(std::uint64_t n) {
  DYNCON_REQUIRE(n <= remaining(), "wire underrun: skip past end of message");
  pos_ += n;
}

// ---- Message ----------------------------------------------------------------

namespace {
constexpr std::uint32_t kTagBits = kMsgTagBits;  // 6 kinds fit 3 bits
constexpr std::uint32_t kTopicBits = 2;  // <= 4 topics per kind
constexpr std::uint32_t kPhaseBits = 3;  // controller phases fit in 3 bits
static_assert(static_cast<std::size_t>(MsgKind::kKindCount__) <=
                  (std::size_t{1} << kTagBits),
              "message kinds no longer fit the wire tag");

/// The one and only description of each message body's wire layout, written
/// against the shared writer interface.  Instantiated for BitWriter (the
/// real encoding) and BitCounter (the size-only release path), so the two
/// cannot drift: any new field is either paid for in both or in neither.
template <class Writer>
void write_message(Writer& w, const Message::Body& body) {
  w.put_bits(body.index(), kTagBits);
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, AgentHopMsg>) {
          w.put_varint(m.agent);
          w.put_gamma(m.distance);
          w.put_gamma(m.top_distance);
          w.put_gamma(m.bag_level);
          w.put_bits(m.phase, kPhaseBits);
          w.put_bit(m.carrying);
        } else if constexpr (std::is_same_v<T, RejectWaveMsg>) {
          // Pure signal: the tag is the message.
        } else if constexpr (std::is_same_v<T, ControlMsg>) {
          w.put_bits(static_cast<std::uint64_t>(m.topic), kTopicBits);
          w.put_gamma(m.value);
        } else if constexpr (std::is_same_v<T, DataMoveMsg>) {
          w.put_gamma(m.item);
        } else if constexpr (std::is_same_v<T, AppMsg>) {
          w.put_bits(static_cast<std::uint64_t>(m.topic), kTopicBits);
          w.put_varint(m.value);
          w.put_gamma(m.opaque_bits);
          w.pad_zeros(m.opaque_bits);
        } else {
          static_assert(std::is_same_v<T, ChannelMsg>);
          w.put_bit(m.topic == ChannelTopic::kAck);
          w.put_gamma(m.seq);
          if (m.topic == ChannelTopic::kData) {
            w.put_gamma(m.payload.bits);
            w.put_encoded(m.payload);
          }
        }
      },
      body);
}
}  // namespace

MsgKind ChannelMsg::inner_kind() const {
  DYNCON_REQUIRE(topic == ChannelTopic::kData && payload.bits >= kTagBits,
                 "inner_kind needs a data frame with a tagged payload");
  BitReader r(payload);
  const std::uint64_t tag = r.get_bits(kTagBits);
  DYNCON_REQUIRE(tag < static_cast<std::uint64_t>(MsgKind::kKindCount__),
                 "channel payload carries an unknown kind tag");
  return static_cast<MsgKind>(tag);
}

Message Message::agent_hop(std::uint64_t agent, std::uint64_t distance,
                           std::uint64_t top_distance, std::uint32_t bag_level,
                           std::uint8_t phase, bool carrying) {
  DYNCON_REQUIRE(phase < (1u << kPhaseBits), "phase tag does not fit 3 bits");
  return Message(AgentHopMsg{agent, distance, top_distance, bag_level, phase,
                             carrying});
}

Message Message::reject_wave() { return Message(RejectWaveMsg{}); }

Message Message::control(ControlTopic topic, std::uint64_t value) {
  return Message(ControlMsg{topic, value});
}

Message Message::data_move(std::uint64_t item) {
  return Message(DataMoveMsg{item});
}

Message Message::app_value(AppTopic topic, std::uint64_t value) {
  DYNCON_REQUIRE(topic != AppTopic::kMetered,
                 "metered payloads go through app_payload()");
  return Message(AppMsg{topic, value, 0});
}

Message Message::app_payload(std::uint64_t opaque_bits) {
  return Message(AppMsg{AppTopic::kMetered, 0, opaque_bits});
}

Message Message::channel_data(std::uint64_t seq, const Message& inner) {
  Message frame(ChannelMsg{});
  frame.assign_channel_data(seq, inner);
  return frame;
}

void Message::assign_channel_data(std::uint64_t seq, const Message& inner) {
  DYNCON_REQUIRE(inner.kind() != MsgKind::kChannel,
                 "the reliable channel never nests frames");
  auto* frame = std::get_if<ChannelMsg>(&body_);
  if (frame == nullptr) frame = &body_.emplace<ChannelMsg>();
  frame->topic = ChannelTopic::kData;
  frame->seq = seq;
  frame->payload = inner.encode(std::move(frame->payload));
}

Message Message::channel_ack(std::uint64_t seq) {
  return Message(ChannelMsg{ChannelTopic::kAck, seq, Encoded{}});
}

Encoded Message::encode() const {
  // The counting pass is cheap (no buffer work), so spend it to size the
  // output exactly — the byte vector is allocated once, never regrown.
  BitWriter w(encoded_bits());
  write_message(w, body_);
  return w.finish();
}

Encoded Message::encode(Encoded&& reuse) const {
  BitWriter w(std::move(reuse));
  write_message(w, body_);
  return w.finish();
}

std::uint64_t Message::encoded_bits() const {
  BitCounter c;
  write_message(c, body_);
  return c.bit_count();
}

Message Message::decode(const Encoded& e) {
  BitReader r(e);
  const std::uint64_t tag = r.get_bits(kTagBits);
  DYNCON_REQUIRE(tag < static_cast<std::uint64_t>(MsgKind::kKindCount__),
                 "malformed message: unknown kind tag");
  Body body;
  switch (static_cast<MsgKind>(tag)) {
    case MsgKind::kAgent: {
      AgentHopMsg m;
      m.agent = r.get_varint();
      m.distance = r.get_gamma();
      m.top_distance = r.get_gamma();
      m.bag_level = static_cast<std::uint32_t>(r.get_gamma());
      m.phase = static_cast<std::uint8_t>(r.get_bits(kPhaseBits));
      m.carrying = r.get_bit();
      body = m;
      break;
    }
    case MsgKind::kReject:
      body = RejectWaveMsg{};
      break;
    case MsgKind::kControl: {
      ControlMsg m;
      m.topic = static_cast<ControlTopic>(r.get_bits(kTopicBits));
      m.value = r.get_gamma();
      body = m;
      break;
    }
    case MsgKind::kDataMove:
      body = DataMoveMsg{r.get_gamma()};
      break;
    case MsgKind::kApp: {
      AppMsg m;
      m.topic = static_cast<AppTopic>(r.get_bits(kTopicBits));
      m.value = r.get_varint();
      m.opaque_bits = r.get_gamma();
      r.skip(m.opaque_bits);
      body = m;
      break;
    }
    case MsgKind::kChannel: {
      ChannelMsg m;
      m.topic = r.get_bit() ? ChannelTopic::kAck : ChannelTopic::kData;
      m.seq = r.get_gamma();
      if (m.topic == ChannelTopic::kData) {
        const std::uint64_t payload_bits = r.get_gamma();
        DYNCON_REQUIRE(payload_bits <= r.remaining(),
                       "malformed channel frame: truncated payload");
        BitWriter pw(payload_bits);
        for (std::uint64_t left = payload_bits; left > 0;) {
          const std::uint32_t chunk =
              left >= 64 ? 64 : static_cast<std::uint32_t>(left);
          pw.put_bits(r.get_bits(chunk), chunk);
          left -= chunk;
        }
        m.payload = pw.finish();
      }
      body = std::move(m);
      break;
    }
    case MsgKind::kKindCount__:
      break;  // unreachable: tag < kKindCount__ checked above
  }
  DYNCON_REQUIRE(r.finished(),
                 "malformed message: trailing bits after the last field");
  return Message(std::move(body));
}

std::string Message::str() const {
  std::ostringstream os;
  os << kind() << "{";
  std::visit(
      [&os](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, AgentHopMsg>) {
          os << "agent=" << m.agent << " dist=" << m.distance
             << " top=" << m.top_distance << " bag=" << m.bag_level
             << " phase=" << static_cast<unsigned>(m.phase)
             << " carrying=" << m.carrying;
        } else if constexpr (std::is_same_v<T, ControlMsg>) {
          os << "topic=" << static_cast<unsigned>(m.topic)
             << " value=" << m.value;
        } else if constexpr (std::is_same_v<T, DataMoveMsg>) {
          os << "item=" << m.item;
        } else if constexpr (std::is_same_v<T, AppMsg>) {
          os << "topic=" << static_cast<unsigned>(m.topic)
             << " value=" << m.value << " opaque_bits=" << m.opaque_bits;
        } else if constexpr (std::is_same_v<T, ChannelMsg>) {
          os << (m.topic == ChannelTopic::kAck ? "ack" : "data")
             << " seq=" << m.seq << " payload_bits=" << m.payload.bits;
        }
      },
      body_);
  os << "}";
  return os.str();
}

}  // namespace dyncon::sim
