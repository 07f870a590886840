// Batch-coalescing tests: the network's same-edge delivery coalescing and
// the end-to-end identity contract — batching is a transport optimization,
// so every observable of a run (registry snapshot, NetStats, delivery
// order, event count) must be bit-identical with batching on and off,
// under every fault adversary and at every shard count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/distributed_controller.hpp"
#include "forest/forest.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/watchdog.hpp"
#include "util/rng.hpp"
#include "workload/shapes.hpp"

namespace dyncon::sim {
namespace {

// ---- coalescing preserves per-link delivery order ---------------------------

/// One delivery stream: bursts of same-tick sends on two links, under the
/// given fault policy, recording arrival order per link.  Returns the two
/// per-link sequences; batching on and off must produce the same ones.
struct StreamResult {
  std::vector<std::uint64_t> link_a;
  std::vector<std::uint64_t> link_b;
  std::uint64_t frames = 0;
  bool operator==(const StreamResult&) const = default;
};

using FaultFactory = std::unique_ptr<FaultPolicy> (*)();

StreamResult run_stream(DelayKind kind, FaultFactory make_fault,
                        bool batching) {
  EventQueue q;
  Network net(q, make_delay(kind, 99));
  net.set_batching(batching);
  if (make_fault != nullptr) net.set_fault_policy(make_fault());
  StreamResult out;
  Rng rng(5);
  std::uint64_t id = 0;
  for (int burst = 0; burst < 40; ++burst) {
    // Same-tick bursts are what coalescing feeds on; vary the burst size
    // and interleave the two links so frames open and close mid-burst.
    const std::uint64_t k = 1 + rng.uniform(0, 5);
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::uint64_t msg_id = id++;
      net.send(0, 1, Message::data_move(msg_id),
               [&out, msg_id] { out.link_a.push_back(msg_id); });
      if (rng.chance(0.4)) {
        const std::uint64_t other = id++;
        net.send(2, 3, Message::data_move(other),
                 [&out, other] { out.link_b.push_back(other); });
      }
    }
    q.run();
  }
  out.frames = net.batch_frames();
  return out;
}

class BatchFifo : public ::testing::TestWithParam<DelayKind> {};

TEST_P(BatchFifo, OrderIdenticalUnderEveryFaultAdversary) {
  const DelayKind kind = GetParam();
  const FaultFactory adversaries[] = {
      nullptr,
      +[]() -> std::unique_ptr<FaultPolicy> {
        return std::make_unique<DropFault>(Rng(11), 0.2);
      },
      +[]() -> std::unique_ptr<FaultPolicy> {
        return std::make_unique<DuplicateFault>(Rng(5), 0.3);
      },
      +[]() -> std::unique_ptr<FaultPolicy> {
        return std::make_unique<BurstLossFault>(Rng(7), 0.5, 96, 24);
      },
      +[]() -> std::unique_ptr<FaultPolicy> {
        return std::make_unique<StallFault>(Rng(3), 0.2, 64, 8);
      },
      +[]() -> std::unique_ptr<FaultPolicy> {
        std::vector<std::unique_ptr<FaultPolicy>> kids;
        kids.push_back(std::make_unique<DropFault>(Rng(1), 0.1));
        kids.push_back(std::make_unique<StallFault>(Rng(2), 0.1, 64, 8));
        return std::make_unique<ComposedFault>(std::move(kids));
      },
  };
  for (std::size_t i = 0; i < std::size(adversaries); ++i) {
    const StreamResult plain = run_stream(kind, adversaries[i], false);
    const StreamResult batched = run_stream(kind, adversaries[i], true);
    EXPECT_EQ(batched.link_a, plain.link_a) << "adversary " << i;
    EXPECT_EQ(batched.link_b, plain.link_b) << "adversary " << i;
    EXPECT_EQ(plain.frames, 0u) << "adversary " << i;
  }
  // The comparison must not be vacuous: fault-free streams coalesce.
  EXPECT_GT(run_stream(kind, nullptr, true).frames, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDelayKinds, BatchFifo,
                         ::testing::Values(DelayKind::kFixed,
                                           DelayKind::kUniform,
                                           DelayKind::kHeavyTail,
                                           DelayKind::kBiased,
                                           DelayKind::kReorder),
                         [](const auto& info) {
                           return std::string(delay_kind_name(info.param));
                         });

}  // namespace
}  // namespace dyncon::sim

// ---- batched grants: registry-identical to unbatched ------------------------

namespace dyncon::core {
namespace {

/// The loads the identity sweep drives.
enum class Load {
  /// An async request flood on a mixed tree: overlapping events at shared
  /// ancestors force waiter queues, so unlock waves release multiple agents
  /// back to back — the traffic inline grant resumes act on.
  kFlood,
  /// Open-loop event and leaf-add churn on fixed 1-tick links under a
  /// scarce budget (W = M/5), so permits keep migrating: inline grant
  /// resumes act here.
  kOpenLoop,
  /// Chaos faults under the reliable channel and a watchdog, on uniform
  /// delays: same-edge coalescing acts here.
  kChaos,
};

constexpr const char* kLoadNames[] = {"flood", "open-loop", "chaos"};

struct DistRun {
  std::string registry_json;
  sim::NetStats net;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  std::uint64_t pops = 0;  ///< sum of EventQueue::run's return values
  std::uint64_t frames = 0;
  std::uint64_t granted = 0;
};

DistRun run_distributed(Load load, std::uint64_t seed, bool batch_grants,
                        bool net_batching) {
  obs::Registry reg;
  DistRun out;
  {
    obs::ScopedMetrics scope(reg);
    Rng rng(seed);
    sim::EventQueue queue;
    sim::Network net(queue,
                     load == Load::kOpenLoop
                         ? sim::make_delay(sim::DelayKind::kFixed, 1)
                         : sim::make_delay(sim::DelayKind::kUniform, 17));
    net.set_batching(net_batching);
    sim::Watchdog wd(queue, 2'000'000);
    DistributedController::Options opts;
    opts.batch_grants = batch_grants;
    tree::DynamicTree t;
    const auto granted = [&out](const Result& r) {
      out.granted += r.granted() ? 1 : 0;
    };
    if (load == Load::kFlood) {
      workload::build(t, workload::Shape::kRandomAttach, 48, rng);
      DistributedController ctrl(net, t, Params(1u << 16, 1u << 15, 4096),
                                 opts);
      const auto nodes = t.alive_nodes();
      for (int wave = 0; wave < 6; ++wave) {
        for (int i = 0; i < 24; ++i) {
          const NodeId u = nodes[rng.uniform(0, nodes.size() - 1)];
          ctrl.submit_event(u, granted);
        }
        out.pops += queue.run();
      }
      out.messages = ctrl.messages_used();
    } else {
      const bool chaos = load == Load::kChaos;
      const std::uint64_t n = chaos ? 96 : 256;
      const std::uint64_t requests = chaos ? 2000 : 4000;
      if (chaos) {
        net.set_fault_policy(sim::make_fault(sim::FaultKind::kChaos, seed));
        net.enable_reliability();
        opts.watchdog = &wd;
      }
      workload::build(t, workload::Shape::kRandomAttach, n, rng);
      // Chaos keeps an effectively infinite budget: a scarce one under
      // faults cannot promise liveness, and the watchdog would fire.
      const Params params =
          chaos ? Params(1u << 30, 1u << 29, 4 * n + 4 * requests)
                : Params(requests, requests / 5, 4 * n + 4 * requests);
      DistributedController ctrl(net, t, params, opts);
      // Every arrival is scheduled up front; subjects come from the
      // initial nodes, which grow-only churn keeps alive.
      const std::vector<NodeId> subjects = t.alive_nodes();
      SimTime when = 0;
      for (std::uint64_t i = 0; i < requests; ++i) {
        when += 1 + rng.uniform(0, chaos ? 6 : 2);
        queue.schedule_at(when, [&ctrl, &subjects, &rng, &granted] {
          const NodeId v = subjects[rng.index(subjects.size())];
          ctrl.submit({rng.chance(0.5) ? RequestSpec::Type::kEvent
                                       : RequestSpec::Type::kAddLeaf,
                       v},
                      granted);
        });
      }
      out.pops += queue.run();
      if (chaos) wd.verify_idle();
      out.messages = ctrl.messages_used();
    }
    out.net = net.stats();
    out.events = queue.events_fired();
    out.frames = net.batch_frames();
  }
  out.registry_json = reg.to_json().dump();
  return out;
}

TEST(BatchedGrants, BitIdenticalToUnbatchedOnSeedSweep) {
  for (const Load load : {Load::kFlood, Load::kOpenLoop, Load::kChaos}) {
    SCOPED_TRACE(kLoadNames[static_cast<int>(load)]);
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const DistRun base = run_distributed(load, seed, false, false);
      ASSERT_GT(base.granted, 0u);
      EXPECT_EQ(base.pops, base.events) << "seed=" << seed;
      for (const bool grants : {false, true}) {
        for (const bool batching : {false, true}) {
          if (!grants && !batching) continue;
          const DistRun r = run_distributed(load, seed, grants, batching);
          EXPECT_EQ(r.registry_json, base.registry_json)
              << "seed=" << seed << " grants=" << grants
              << " batching=" << batching;
          EXPECT_EQ(r.net, base.net) << "seed=" << seed;
          EXPECT_EQ(r.messages, base.messages) << "seed=" << seed;
          EXPECT_EQ(r.events, base.events) << "seed=" << seed;
          EXPECT_EQ(r.granted, base.granted) << "seed=" << seed;
          // Neither input is vacuous: its mechanism acts on the batched run.
          if (grants && batching && load == Load::kOpenLoop) {
            EXPECT_LT(r.pops, r.events) << "seed=" << seed;
          }
          if (batching && load == Load::kChaos) {
            EXPECT_GT(r.frames, 0u) << "seed=" << seed;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dyncon::core

// ---- forest: byte-identical across shard counts ------------------------------

namespace dyncon::forest {
namespace {

std::string forest_registry(unsigned shards) {
  ForestConfig cfg;
  cfg.shards = shards;
  cfg.mux.users = 96;
  cfg.mux.trees = 12;
  cfg.mux.requests_per_user = 6;
  cfg.tree_size = 12;
  cfg.window = 64;
  obs::Registry reg;
  ForestEngine engine(cfg, /*seed=*/77);
  {
    obs::ScopedMetrics scope(reg);
    (void)engine.run();
  }
  return reg.to_json().dump();
}

TEST(ForestBatching, ByteIdenticalAcrossShardsAndBatching) {
  // The per-window barrier exchange batches every shard's completions; the
  // merged registry must not depend on how many shards fed the batch.
  const std::string base = forest_registry(1);
  for (const unsigned shards : {3u, 8u}) {
    EXPECT_EQ(forest_registry(shards), base) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace dyncon::forest
