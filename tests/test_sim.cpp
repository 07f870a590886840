// Unit tests for the discrete-event simulator: event ordering, delay
// policies, network accounting.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/delay.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace dyncon::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_after(5, [&] { fired.push_back(5); });
  q.schedule_after(1, [&] { fired.push_back(1); });
  q.schedule_after(3, [&] { fired.push_back(3); });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule_after(7, [&fired, i] { fired.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  std::vector<SimTime> fired;
  for (SimTime t : {2u, 5u, 9u, 10u, 14u}) {
    q.schedule_after(t, [&fired, &q] { fired.push_back(q.now()); });
  }
  // Horizon is exclusive: the event AT 10 stays pending.
  EXPECT_EQ(q.run_until(10), 3u);
  EXPECT_EQ(fired, (std::vector<SimTime>{2, 5, 9}));
  EXPECT_EQ(q.next_time(), 10u);
  EXPECT_EQ(q.run_until(10), 0u) << "re-running the same window is a no-op";
  EXPECT_EQ(q.run_until(UINT64_MAX), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilIncludesEventsScheduledInsideTheWindow) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.schedule_after(1, [&] {
    fired.push_back(q.now());
    q.schedule_after(2, [&] { fired.push_back(q.now()); });   // t=3, inside
    q.schedule_after(50, [&] { fired.push_back(q.now()); });  // t=51, outside
  });
  EXPECT_EQ(q.run_until(10), 2u);
  EXPECT_EQ(fired, (std::vector<SimTime>{1, 3}));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_time(), 51u);
}

TEST(EventQueue, NextTimeOnEmptyQueueThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.next_time(), ContractError);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_after(1, recurse);
  };
  q.schedule_after(1, recurse);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueue, MaxEventsBound) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.schedule_after(1, [] {});
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue q;
  q.schedule_after(10, [] {});
  q.step();
  EXPECT_THROW(q.schedule_at(5, [] {}), ContractError);
}

TEST(EventQueue, ZeroDelayFiresBeforeUnitDelay) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_after(1, [&] {
    // Scheduled during the same event: 0-delay beats future messages.
    q.schedule_after(1, [&] { fired.push_back(2); });
    q.schedule_after(0, [&] { fired.push_back(1); });
  });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

// Property: among events scheduled for the same SimTime, firing order is
// strict insertion (seq) order — regardless of how many other times are
// interleaved and in what order everything was scheduled.  This pins the
// heap comparator's tie-break: a heap reshuffle must never reorder ties.
TEST(EventQueue, PropertySameTimeEventsFireInFifoOrder) {
  Rng rng(0xf1f0);
  for (int round = 0; round < 50; ++round) {
    EventQueue q;
    // (time, insertion index) in fired order.
    std::vector<std::pair<SimTime, int>> fired;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      // Few distinct times => many ties; schedule order is random.
      const SimTime when = rng.uniform(0, 7);
      q.schedule_at(when, [&fired, when, i] { fired.emplace_back(when, i); });
    }
    q.run();
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(n));
    for (std::size_t k = 1; k < fired.size(); ++k) {
      ASSERT_LE(fired[k - 1].first, fired[k].first) << "time order violated";
      if (fired[k - 1].first == fired[k].first) {
        ASSERT_LT(fired[k - 1].second, fired[k].second)
            << "FIFO tie-break violated at time " << fired[k].first;
      }
    }
  }
}

// Same property under churn: events firing at time T schedule more events
// at the same time T (zero delay), which must run after every already-queued
// time-T event, still in insertion order.
TEST(EventQueue, PropertyZeroDelayChainsKeepFifoOrder) {
  EventQueue q;
  std::vector<int> fired;
  int next_id = 100;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(1, [&q, &fired, &next_id, i] {
      fired.push_back(i);
      const int child = next_id++;
      q.schedule_after(0, [&fired, child] { fired.push_back(child); });
    });
  }
  q.run();
  ASSERT_EQ(fired.size(), 20u);
  // First the ten originals in order, then the ten children in spawn order.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(10 + i)], 100 + i);
  }
}

TEST(InlineFn, InvokesAndMoves) {
  int hits = 0;
  InlineFn<void()> f = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(hits, 1);
  InlineFn<void()> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  g();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  {
    InlineFn<int()> f = [token] { return *token; };
    token.reset();
    EXPECT_FALSE(alive.expired());  // the capture keeps it alive
    InlineFn<int()> g = std::move(f);
    EXPECT_EQ(g(), 7);
  }
  EXPECT_TRUE(alive.expired());  // destroyed with the wrapper, no leak
}

TEST(InlineFn, ReturnsValuesAndTakesArguments) {
  InlineFn<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(Delay, FixedIsConstant) {
  FixedDelay d(3);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d.delay(0, 1, 0), 3u);
  EXPECT_THROW(FixedDelay(0), ContractError);
}

TEST(Delay, UniformWithinBounds) {
  UniformDelay d(Rng(1), 2, 9);
  for (int i = 0; i < 200; ++i) {
    const SimTime t = d.delay(0, 1, 0);
    EXPECT_GE(t, 2u);
    EXPECT_LE(t, 9u);
  }
}

TEST(Delay, HeavyTailWithinCap) {
  HeavyTailDelay d(Rng(2), 64);
  SimTime max_seen = 0;
  for (int i = 0; i < 2000; ++i) {
    const SimTime t = d.delay(0, 1, 0);
    EXPECT_GE(t, 1u);
    EXPECT_LE(t, 64u);
    max_seen = std::max(max_seen, t);
  }
  EXPECT_GT(max_seen, 8u) << "tail never materialized";
}

TEST(Delay, BiasedSlowsSomeNodes) {
  BiasedDelay d(Rng(3), 0.5, 100);
  bool saw_slow = false, saw_fast = false;
  for (NodeId n = 0; n < 64; ++n) {
    const SimTime t = d.delay(n, n, 0);
    (t > 100 ? saw_slow : saw_fast) = true;
  }
  EXPECT_TRUE(saw_slow);
  EXPECT_TRUE(saw_fast);
}

TEST(Delay, FactoryCoversAllKinds) {
  for (DelayKind k : {DelayKind::kFixed, DelayKind::kUniform,
                      DelayKind::kHeavyTail, DelayKind::kBiased}) {
    auto d = make_delay(k, 7);
    ASSERT_NE(d, nullptr);
    EXPECT_GE(d->delay(1, 2, 0), 1u);
    EXPECT_FALSE(d->name().empty());
  }
}

TEST(Network, CountsMessagesAndBits) {
  EventQueue q;
  Network net(q, std::make_unique<FixedDelay>(2));
  int delivered = 0;
  const Message hop = Message::agent_hop(1, 3, 3, 0, 0, false);
  const Message wave = Message::reject_wave();
  net.send(0, 1, hop, [&] { ++delivered; });
  net.send(1, 2, wave, [&] { ++delivered; });
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().total_bits,
            hop.measured_bits() + wave.measured_bits());
  EXPECT_EQ(net.stats().max_message_bits, hop.measured_bits());
  EXPECT_EQ(net.stats().kind(MsgKind::kAgent), 1u);
  EXPECT_EQ(net.stats().kind(MsgKind::kReject), 1u);
  q.run();
  EXPECT_EQ(delivered, 2);
}

TEST(Network, ChargeModelsUnscheduledMessages) {
  EventQueue q;
  Network net(q, std::make_unique<FixedDelay>(1));
  const Message move = Message::data_move(12);
  net.charge(move, 5);
  EXPECT_EQ(net.stats().messages, 5u);
  EXPECT_EQ(net.stats().total_bits, 5 * move.measured_bits());
  EXPECT_EQ(net.stats().kind(MsgKind::kDataMove), 5u);
  EXPECT_TRUE(q.empty());
}

TEST(Network, DeliveryRespectsDelayPolicy) {
  EventQueue q;
  Network net(q, std::make_unique<FixedDelay>(7));
  SimTime delivered_at = 0;
  net.send(0, 1, Message::app_payload(1), [&] { delivered_at = q.now(); });
  q.run();
  EXPECT_EQ(delivered_at, 7u);
}

}  // namespace
}  // namespace dyncon::sim
