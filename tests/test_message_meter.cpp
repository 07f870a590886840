// Tests for the message-metering adapter (§2.2): a network-wide message
// budget enforced through the controller.

#include <gtest/gtest.h>

#include "core/iterated.hpp"
#include "core/message_meter.hpp"
#include "core/trivial_controller.hpp"
#include "util/rng.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;

struct Fixture {
  sim::EventQueue queue;
  sim::Network net;
  DynamicTree tree;

  Fixture() : net(queue, sim::make_delay(sim::DelayKind::kFixed, 1)) {}
};

TEST(MessageMeter, EnforcesGlobalBudgetExactly) {
  Fixture f;
  Rng rng(1);
  workload::build(f.tree, workload::Shape::kRandomAttach, 24, rng);
  const std::uint64_t M = 50;
  IteratedController ctrl(f.tree, M, /*W=*/0, /*U=*/64);  // exact budget
  MessageMeter meter(ctrl, f.net);

  int delivered = 0;
  const auto nodes = f.tree.alive_nodes();
  for (int i = 0; i < 200; ++i) {
    const NodeId from = nodes[rng.index(nodes.size())];
    const NodeId to = nodes[rng.index(nodes.size())];
    meter.send(from, to, 32, [&] { ++delivered; });
  }
  f.queue.run();
  EXPECT_EQ(meter.sent(), M);
  EXPECT_EQ(meter.suppressed(), 200 - M);
  EXPECT_EQ(delivered, static_cast<int>(M));
}

TEST(MessageMeter, WasteBandWithPositiveW) {
  Fixture f;
  Rng rng(2);
  workload::build(f.tree, workload::Shape::kCaterpillar, 32, rng);
  const std::uint64_t M = 60, W = 15;
  IteratedController ctrl(f.tree, M, W, /*U=*/64);
  MessageMeter meter(ctrl, f.net);
  const auto nodes = f.tree.alive_nodes();
  for (int i = 0; i < 300; ++i) {
    meter.send(nodes[rng.index(nodes.size())], f.tree.root(), 8, [] {});
  }
  EXPECT_LE(meter.sent(), M);
  EXPECT_GE(meter.sent(), M - W);  // liveness carries over to the meter
}

TEST(MessageMeter, AmortizesBetterThanCentralBudgetServer) {
  // A central budget server costs one root round trip per metered message;
  // the controller caches permits near chatty senders.
  Fixture f;
  Rng rng(3);
  workload::build(f.tree, workload::Shape::kPath, 257, rng);
  const NodeId chatty = f.tree.alive_nodes().back();
  const std::uint64_t M = 512;

  IteratedController::Options opts;
  opts.track_domains = false;
  // Generous waste budget (W = 4U) makes phi = 4: each static package the
  // controller parks at the chatty sender serves four messages.
  IteratedController smart(f.tree, M, 4 * 512, /*U=*/512, opts);
  TrivialController naive(f.tree, M);
  MessageMeter smart_meter(smart, f.net);
  MessageMeter naive_meter(naive, f.net);
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(smart_meter.send(chatty, f.tree.root(), 8, [] {}));
    ASSERT_TRUE(naive_meter.send(chatty, f.tree.root(), 8, [] {}));
  }
  EXPECT_LT(smart_meter.metering_cost(), naive_meter.metering_cost() / 4);
}

TEST(MessageMeter, SuppressedMessagesNeverTravel) {
  Fixture f;
  IteratedController ctrl(f.tree, 1, 0, 2);
  MessageMeter meter(ctrl, f.net);
  int delivered = 0;
  ASSERT_TRUE(meter.send(f.tree.root(), f.tree.root(), 8,
                         [&] { ++delivered; }));
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(meter.send(f.tree.root(), f.tree.root(), 8,
                            [&] { ++delivered; }));
  }
  f.queue.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(f.net.stats().kind(sim::MsgKind::kApp), 1u);
}

}  // namespace
}  // namespace dyncon::core
