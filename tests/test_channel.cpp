// Unit tests for the reliable-FIFO channel sublayer (sim/channel.hpp):
// retransmission repairs drops, duplicate suppression, ack-loss recovery,
// FIFO restoration under reordering, exponential backoff with a loud retry
// cap, measured control-traffic accounting, and the zero-overhead-when-off
// guarantee (bit-identical NetStats, asserted with NetStats::operator==).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/channel.hpp"
#include "sim/crash.hpp"
#include "sim/delay.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/wire.hpp"
#include "util/rng.hpp"

namespace dyncon::sim {
namespace {

Message probe(std::uint64_t agent = 7) {
  return Message::agent_hop(agent, 3, 5, 2, /*phase=*/1, /*carrying=*/true);
}

struct ChanFixture {
  EventQueue queue;
  Network net;
  explicit ChanFixture(std::unique_ptr<DelayPolicy> delay =
                           std::make_unique<FixedDelay>(1))
      : net(queue, std::move(delay)) {}
};

// A drop policy that loses exactly the first `n` transmissions, then
// passes everything — surgical loss for deterministic channel tests.
class DropFirstN final : public FaultPolicy {
 public:
  explicit DropFirstN(int n) : remaining_(n) {}
  FaultDecision on_send(NodeId, NodeId, MsgKind, std::uint64_t,
                        SimTime) override {
    FaultDecision d;
    if (remaining_ > 0) {
      --remaining_;
      d.drop = true;
    }
    return d;
  }
  std::string name() const override { return "drop-first-n"; }

 private:
  int remaining_;
};

// Drops every kChannel ack (and nothing else): exercises the ack-loss
// repair path, where the provoked retransmission is suppressed and
// re-acked.
class DropAcks final : public FaultPolicy {
 public:
  FaultDecision on_send(NodeId, NodeId, MsgKind kind, std::uint64_t,
                        SimTime) override {
    FaultDecision d;
    if (kind == MsgKind::kChannel && dropped_ < 2) {
      d.drop = true;
      ++dropped_;
    }
    return d;
  }
  std::string name() const override { return "drop-acks"; }

 private:
  int dropped_ = 0;
};

TEST(Channel, RetransmissionRepairsADrop) {
  ChanFixture s;
  s.net.set_fault_policy(std::make_unique<DropFirstN>(1));
  s.net.enable_reliability();
  int delivered = 0;
  s.net.send(0, 1, probe(), [&] { ++delivered; });
  s.queue.run();
  EXPECT_EQ(delivered, 1);
  const ChannelStats& cs = s.net.channel()->stats();
  EXPECT_EQ(cs.data_frames, 1u);
  EXPECT_EQ(cs.retransmits, 1u);
  EXPECT_EQ(cs.duplicates_suppressed, 0u);
  EXPECT_EQ(s.net.channel()->in_flight(), 0u);
  // Delivery happened only after the first RTO expired.
  EXPECT_GE(s.queue.now(), s.net.channel()->config().initial_rto);
}

TEST(Channel, FaultInjectedCopiesAreSuppressed) {
  ChanFixture s;
  s.net.set_fault_policy(
      std::make_unique<DuplicateFault>(Rng(3), 1.0 - 1e-12));
  s.net.enable_reliability();
  int delivered = 0;
  s.net.send(0, 1, probe(), [&] { ++delivered; });
  s.queue.run();
  EXPECT_EQ(delivered, 1) << "exactly-once despite transport duplication";
  EXPECT_GE(s.net.channel()->stats().duplicates_suppressed, 1u);
  EXPECT_EQ(s.net.channel()->in_flight(), 0u);
}

TEST(Channel, LostAckIsRepairedByRetransmission) {
  ChanFixture s;
  s.net.set_fault_policy(std::make_unique<DropAcks>());
  s.net.enable_reliability();
  int delivered = 0;
  s.net.send(0, 1, probe(), [&] { ++delivered; });
  s.queue.run();
  EXPECT_EQ(delivered, 1);
  const ChannelStats& cs = s.net.channel()->stats();
  EXPECT_GE(cs.retransmits, 1u);
  EXPECT_GE(cs.duplicates_suppressed, 1u) << "retransmission was suppressed";
  EXPECT_EQ(s.net.channel()->in_flight(), 0u) << "a later ack landed";
}

TEST(Channel, FifoRestoredOverReorderingDelays) {
  // kReorder delays shuffle arrival order aggressively; the channel must
  // hand messages up in send order anyway.
  ChanFixture s(make_delay(DelayKind::kReorder, 1234));
  // A faulty-but-harmless policy: lossy() must be true for the channel to
  // engage, so drop with tiny probability (seeded; may or may not fire).
  s.net.set_fault_policy(std::make_unique<DropFault>(Rng(5), 0.05));
  s.net.enable_reliability();
  std::vector<int> order;
  const int n = 32;
  for (int i = 0; i < n; ++i) {
    s.net.send(0, 1, probe(i), [&order, i] { order.push_back(i); });
  }
  s.queue.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_EQ(s.net.channel()->in_flight(), 0u);
}

TEST(Channel, ManyLinksManyMessagesAllDeliveredExactlyOnce) {
  ChanFixture s(make_delay(DelayKind::kUniform, 9));
  s.net.set_fault_policy(make_fault(FaultKind::kChaos, 31));
  s.net.enable_reliability();
  std::vector<int> hits(64, 0);
  for (int i = 0; i < 64; ++i) {
    s.net.send(i % 8, 8 + i % 8, probe(i), [&hits, i] { ++hits[i]; });
  }
  s.queue.run();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(hits[i], 1) << "message " << i;
  EXPECT_EQ(s.net.channel()->in_flight(), 0u);
}

TEST(Channel, BurstIntoACrashWindowOutgrowsTheWindowRing) {
  // A burst far larger than a link's initial window ring, sent as the
  // receiver goes down: nothing is acked until it is back, so the ring
  // must double several times — with the burst's seqs starting mid-ring,
  // behind frames that were already acked — while keeping every frame.
  // Afterwards the link must release in FIFO order, exactly once, and
  // drain.
  ChanFixture s;
  const CrashSchedule crashes(Rng(11), /*node_fraction=*/1.0,
                              /*period=*/1024, /*down_len=*/256);
  SimTime down_at = 0;
  for (SimTime t : crashes.windows(1, 1u << 16)) {
    if (!crashes.down(0, t) && !crashes.down(0, t + 1)) {
      down_at = t;
      break;
    }
  }
  ASSERT_GT(down_at, 0u) << "no receiver down window with the sender up";
  s.net.set_fault_policy(make_crash_stack(
      nullptr, std::make_shared<const CrashSchedule>(crashes)));
  s.net.enable_reliability();
  constexpr int kAhead = 5;
  constexpr int kBurst = 100;
  std::vector<int> order;
  auto send = [&s, &order](int i) {
    s.net.send(0, 1, probe(static_cast<std::uint64_t>(i)),
               [&order, i] { order.push_back(i); });
  };
  for (int i = 0; i < kAhead; ++i) send(i);
  std::size_t peak = 0;
  s.queue.schedule_at(down_at, [&] {
    ASSERT_EQ(s.net.channel()->in_flight(), 0u) << "the early frames acked";
    for (int i = kAhead; i < kAhead + kBurst; ++i) send(i);
    peak = s.net.channel()->in_flight();
  });
  s.queue.run();
  EXPECT_EQ(peak, static_cast<std::size_t>(kBurst));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kAhead + kBurst));
  for (int i = 0; i < kAhead + kBurst; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_GE(s.net.channel()->stats().retransmits,
            static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(s.net.channel()->in_flight(), 0u);
}

TEST(Channel, BackoffGivesUpLoudlyOnADeadLink) {
  ChanFixture s;
  // Everything drops forever: the frame can never get through.
  s.net.set_fault_policy(std::make_unique<DropFault>(Rng(3), 1.0 - 1e-12));
  ChannelConfig cfg;
  cfg.initial_rto = 4;
  cfg.max_rto = 16;
  cfg.max_retries = 5;
  s.net.enable_reliability(cfg);
  s.net.send(0, 1, probe(), [] { FAIL() << "delivered on a dead link"; });
  EXPECT_THROW(s.queue.run(), InvariantError);
  EXPECT_EQ(s.net.channel()->stats().retransmits, 5u);
}

TEST(Channel, ControlTrafficIsMeasuredAndKindSplit) {
  ChanFixture s;
  s.net.set_fault_policy(std::make_unique<DropFirstN>(1));
  s.net.enable_reliability();
  int delivered = 0;
  s.net.send(0, 1, probe(), [&] { ++delivered; });
  s.queue.run();
  ASSERT_EQ(delivered, 1);
  const NetStats& st = s.net.stats();
  const auto hop = static_cast<std::size_t>(MsgKind::kAgent);
  const auto chan = static_cast<std::size_t>(MsgKind::kChannel);
  // Two physical data frames (original + retransmit) charged as agent
  // traffic at the full wrapped size; one ack under kChannel.
  EXPECT_EQ(st.by_kind[hop], 2u);
  EXPECT_EQ(st.by_kind[chan], 1u);
  EXPECT_EQ(st.messages, 3u);
  const Encoded raw = probe().encode();
  EXPECT_GT(st.max_bits_by_kind[hop], raw.bits)
      << "wrapped frame must be bigger than the bare message";
  EXPECT_GT(st.bits_by_kind[chan], 0u);
}

TEST(Channel, ZeroOverheadWhenFaultFree) {
  // The acceptance bar: with all fault rates at zero, a run through the
  // enabled channel is *bit-identical* to a run with no channel at all.
  auto run = [](bool with_channel) {
    ChanFixture s(make_delay(DelayKind::kHeavyTail, 77));
    if (with_channel) {
      // A policy whose rates are all zero: lossy() stays false.
      s.net.set_fault_policy(std::make_unique<DropFault>(Rng(1), 0.0));
      s.net.enable_reliability();
    }
    int delivered = 0;
    for (int i = 0; i < 128; ++i) {
      s.net.send(i % 16, (i + 1) % 16, probe(i), [&] { ++delivered; });
    }
    s.queue.run();
    EXPECT_EQ(delivered, 128);
    if (with_channel) {
      EXPECT_EQ(s.net.channel()->stats().data_frames, 0u);
      EXPECT_EQ(s.net.channel()->stats().retransmits, 0u);
      EXPECT_EQ(s.net.channel()->stats().acks, 0u);
    }
    return s.net.stats();
  };
  const NetStats bare = run(false);
  const NetStats channeled = run(true);
  EXPECT_TRUE(bare == channeled)
      << "with: " << channeled.str() << "\nwithout: " << bare.str();
}

TEST(Channel, StatsMergeAndPrint) {
  ChannelStats a{10, 2, 9, 1, 3};
  const ChannelStats b{5, 1, 4, 2, 0};
  a.merge(b);
  EXPECT_EQ(a, (ChannelStats{15, 3, 13, 3, 3}));
  EXPECT_FALSE(a.str().empty());
}

TEST(Channel, WireRoundTripOfChannelFrames) {
  const Message data = Message::channel_data(42, probe());
  const Encoded enc = data.encode();
  EXPECT_EQ(Message::decode(enc), data);
  EXPECT_EQ(data.as<ChannelMsg>().inner_kind(), MsgKind::kAgent);
  const Message ack = Message::channel_ack(7);
  EXPECT_EQ(Message::decode(ack.encode()), ack);
  // Frames never nest.
  EXPECT_THROW(Message::channel_data(0, data), ContractError);
}

}  // namespace
}  // namespace dyncon::sim
