// Forest runtime tests: the sharded engine must be a pure function of
// (config, seed) — byte-identical metrics at any shard count — while the
// request mux, cross-shard exchange, per-shard RNG streams, and registry
// merge each hold their own contracts.  This suite also runs under TSan in
// CI (the shards>1 cases drive real pool workers through the barriers).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "forest/forest.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "workload/request_mux.hpp"

namespace dyncon::forest {
namespace {

ForestConfig small_config(unsigned shards) {
  ForestConfig cfg;
  cfg.shards = shards;
  cfg.mux.users = 96;
  cfg.mux.trees = 12;
  cfg.mux.requests_per_user = 6;
  cfg.tree_size = 12;
  cfg.window = 64;
  return cfg;
}

/// Run one engine to completion under a fresh registry; returns the
/// registry JSON (counters + histograms, deterministically ordered) and
/// the stats.
struct RunResult {
  ForestStats stats;
  std::string registry_json;
};

RunResult run_forest(const ForestConfig& cfg, std::uint64_t seed) {
  obs::Registry reg;
  ForestEngine engine(cfg, seed);
  RunResult out;
  {
    obs::ScopedMetrics scope(reg);
    out.stats = engine.run();
  }
  out.registry_json = reg.to_json().dump();
  return out;
}

// ---- shard determinism ------------------------------------------------------

TEST(ForestDeterminism, ByteIdenticalAtOneVsEightShards) {
  const RunResult serial = run_forest(small_config(1), 77);
  const RunResult sharded = run_forest(small_config(8), 77);
  EXPECT_EQ(serial.registry_json, sharded.registry_json);
  EXPECT_EQ(serial.stats.requests, sharded.stats.requests);
  EXPECT_EQ(serial.stats.granted, sharded.stats.granted);
  EXPECT_EQ(serial.stats.rejected, sharded.stats.rejected);
  EXPECT_EQ(serial.stats.other, sharded.stats.other);
  EXPECT_EQ(serial.stats.events, sharded.stats.events);
  EXPECT_EQ(serial.stats.windows, sharded.stats.windows);
  EXPECT_EQ(serial.stats.handoffs, sharded.stats.handoffs);
}

TEST(ForestDeterminism, EveryShardCountAgrees) {
  const RunResult base = run_forest(small_config(1), 5);
  for (unsigned k : {2u, 3u, 5u, 8u}) {
    const RunResult r = run_forest(small_config(k), 5);
    EXPECT_EQ(r.registry_json, base.registry_json) << "shards=" << k;
    EXPECT_EQ(r.stats.events, base.stats.events) << "shards=" << k;
  }
}

TEST(ForestDeterminism, RerunsAreIdenticalAndSeedsDiffer) {
  const RunResult a = run_forest(small_config(4), 11);
  const RunResult b = run_forest(small_config(4), 11);
  const RunResult c = run_forest(small_config(4), 12);
  EXPECT_EQ(a.registry_json, b.registry_json);
  EXPECT_NE(a.registry_json, c.registry_json);
}

TEST(ForestDeterminism, HoldsUnderTightPermitBudget) {
  // Exhaustion (reject waves) is the controller's nastiest path; shard
  // counts must still agree byte-for-byte when budgets run dry.
  ForestConfig cfg = small_config(1);
  cfg.permits_per_tree = 8;
  const RunResult serial = run_forest(cfg, 31);
  cfg.shards = 6;
  const RunResult sharded = run_forest(cfg, 31);
  EXPECT_EQ(serial.registry_json, sharded.registry_json);
  EXPECT_GT(serial.stats.rejected + serial.stats.other, 0u)
      << "budget of 8 permits for 6 requests/user * 96 users must exhaust";
}

TEST(ForestDeterminism, EchoModeAgreesAcrossShardCounts) {
  ForestConfig cfg = small_config(1);
  cfg.service = Service::kEcho;
  const RunResult serial = run_forest(cfg, 9);
  cfg.shards = 8;
  const RunResult sharded = run_forest(cfg, 9);
  EXPECT_EQ(serial.registry_json, sharded.registry_json);
  EXPECT_EQ(serial.stats.granted, serial.stats.requests)
      << "echo grants everything";
}

// ---- cross-shard delivery ---------------------------------------------------

TEST(ForestExchange, CrossShardHandoffsHappenAndStayOutOfMetrics) {
  // With trees striped modulo shards and Zipf-hopping users, follow-up
  // requests must frequently land on a different shard; the count is real
  // work but shard-count dependent, so it lives in stats, not the registry.
  const RunResult serial = run_forest(small_config(1), 3);
  const RunResult sharded = run_forest(small_config(4), 3);
  EXPECT_EQ(serial.stats.cross_shard, 0u);
  EXPECT_GT(sharded.stats.cross_shard, 0u);
  EXPECT_EQ(serial.registry_json, sharded.registry_json)
      << "cross-shard routing may not leak into merged metrics";
  EXPECT_EQ(sharded.registry_json.find("cross_shard"), std::string::npos);
}

TEST(ForestExchange, EveryRequestCompletesExactlyOnce) {
  const ForestConfig cfg = small_config(3);
  const RunResult r = run_forest(cfg, 21);
  const std::uint64_t expected =
      cfg.mux.users * cfg.mux.requests_per_user;
  EXPECT_EQ(r.stats.requests, expected);
  // Follow-ups = everything after each user's opening request.
  EXPECT_EQ(r.stats.handoffs, expected - cfg.mux.users);
  EXPECT_EQ(r.stats.granted + r.stats.rejected + r.stats.other,
            r.stats.requests);
}

TEST(ForestExchange, WindowsAdvanceMonotonically) {
  const RunResult r = run_forest(small_config(2), 13);
  EXPECT_GT(r.stats.windows, 1u);
  // Closed loop + window-edge clamp: a user completes at most one request
  // per window, so the run needs at least requests_per_user windows.
  EXPECT_GE(r.stats.windows, small_config(2).mux.requests_per_user);
}

// ---- registry merge ---------------------------------------------------------

TEST(ForestRegistry, MergedTotalsMatchTheWorkload) {
  const ForestConfig cfg = small_config(4);
  obs::Registry reg;
  ForestEngine engine(cfg, 55);
  ForestStats stats;
  {
    obs::ScopedMetrics scope(reg);
    stats = engine.run();
  }
  const std::uint64_t expected =
      cfg.mux.users * cfg.mux.requests_per_user;
  EXPECT_EQ(reg.counter("forest.requests.total"), expected);
  EXPECT_EQ(reg.counter("forest.requests.granted"), stats.granted);
  EXPECT_EQ(reg.counter("forest.requests.rejected"), stats.rejected);
  EXPECT_EQ(reg.counter("forest.requests.other"), stats.other);
  EXPECT_EQ(reg.counter("forest.ops.permit") +
                reg.counter("forest.ops.grow") +
                reg.counter("forest.ops.shrink") +
                reg.counter("forest.ops.destroy"),
            expected);
  const obs::Histogram* cost = reg.histogram("forest.serve.cost");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->count, expected);
  const obs::Histogram* defer = reg.histogram("forest.mux.defer");
  ASSERT_NE(defer, nullptr);
  EXPECT_EQ(defer->count, stats.handoffs);
}

TEST(ForestRegistry, NoInstalledRegistryIsFine) {
  // The engine must run (and keep its stats) with metrics disabled.
  ForestEngine engine(small_config(2), 8);
  const ForestStats stats = engine.run();
  EXPECT_EQ(stats.requests,
            small_config(2).mux.users * small_config(2).mux.requests_per_user);
}

// ---- engine contracts -------------------------------------------------------

TEST(ForestEngineContracts, RunIsOneShot) {
  ForestEngine engine(small_config(1), 2);
  (void)engine.run();
  EXPECT_THROW((void)engine.run(), ContractError);
}

TEST(ForestEngineContracts, RejectsDegenerateConfigs) {
  ForestConfig cfg = small_config(1);
  cfg.shards = 0;
  EXPECT_THROW(ForestEngine(cfg, 1), ContractError);
  cfg = small_config(1);
  cfg.window = 0;
  EXPECT_THROW(ForestEngine(cfg, 1), ContractError);
  cfg = small_config(1);
  cfg.tree_size = 0;
  EXPECT_THROW(ForestEngine(cfg, 1), ContractError);
}

TEST(ForestEngineContracts, ShardPlacementIsModulo) {
  ForestEngine engine(small_config(3), 1);
  EXPECT_EQ(engine.shards(), 3u);
  EXPECT_EQ(engine.shard_of(0), 0u);
  EXPECT_EQ(engine.shard_of(4), 1u);
  EXPECT_EQ(engine.shard_of(11), 2u);
}

// ---- controller parameter sizing (the u_bound regression) -------------------

TEST(ForestParams, ControllerLevelsIndependentOfUsersAndTrees) {
  // The bug this pins down: u_bound was tree_size + total_requests + 2, so
  // adding unrelated users or trees to the workload silently deepened every
  // controller's level structure.  tree_params must be a pure function of
  // the per-tree knobs.
  ForestConfig small = small_config(1);
  ForestConfig huge = small_config(1);
  huge.mux.users = 1'000'000;
  huge.mux.requests_per_user = 64;
  huge.mux.trees = 500'000;
  const core::Params a = tree_params(small);
  const core::Params b = tree_params(huge);
  EXPECT_EQ(a.M(), b.M());
  EXPECT_EQ(a.U(), b.U());
  EXPECT_EQ(a.W(), b.W());
  EXPECT_EQ(a.U(), small.tree_size + resolved_grow_cap(small) + 2);
  // An explicit cap flows straight through.
  ForestConfig capped = small_config(1);
  capped.grow_cap = 7;
  EXPECT_EQ(resolved_grow_cap(capped), 7u);
  EXPECT_EQ(tree_params(capped).U(), capped.tree_size + 7 + 2);
}

TEST(ForestParams, GrowCapRefusesAsMootDeterministically) {
  // A cap tight enough to trip: grows beyond it complete as kMoot and are
  // counted, and the refusal is byte-identical at any shard count.
  ForestConfig cfg = small_config(1);
  cfg.grow_cap = 2;
  cfg.mux.grow_fraction = 0.5;
  obs::Registry reg;
  ForestEngine engine(cfg, 42);
  {
    obs::ScopedMetrics scope(reg);
    (void)engine.run();
  }
  EXPECT_GT(reg.counter("forest.ops.grow_capped"), 0u);
  EXPECT_LE(reg.counter("forest.ops.grow_capped"),
            reg.counter("forest.ops.grow"));
  const RunResult serial = run_forest(cfg, 42);
  cfg.shards = 5;
  const RunResult sharded = run_forest(cfg, 42);
  EXPECT_EQ(serial.registry_json, sharded.registry_json);
}

// ---- lazy materialization / hibernation -------------------------------------

TEST(ForestMemory, LazyMatchesEagerByteForByte) {
  // Materializing a tree at construction or at first touch must be
  // indistinguishable in every counter, histogram, and invariant stat — a
  // tree's build is a pure function of (seed, tree_id).
  for (std::uint64_t seed : {77ull, 5ull, 910ull}) {
    for (unsigned shards : {1u, 4u}) {
      ForestConfig lazy = small_config(shards);
      ForestConfig eager = small_config(shards);
      eager.eager = true;
      const RunResult a = run_forest(lazy, seed);
      const RunResult b = run_forest(eager, seed);
      EXPECT_EQ(a.registry_json, b.registry_json)
          << "seed=" << seed << " shards=" << shards;
      EXPECT_EQ(a.stats.events, b.stats.events);
      EXPECT_EQ(a.stats.granted, b.stats.granted);
      EXPECT_GE(b.stats.tree_builds, a.stats.tree_builds)
          << "eager builds every tree; lazy only the touched ones";
    }
  }
}

TEST(ForestMemory, ByteIdenticalAtAnyResidentBudget) {
  // The hibernate -> rematerialize round-trip must be invisible: any
  // residency budget (including a starved budget of one resident tree per
  // shard) reproduces the unlimited run's registry exactly.
  for (std::uint64_t seed : {77ull, 31ull}) {
    for (unsigned shards : {1u, 3u, 8u}) {
      ForestConfig cfg = small_config(shards);
      const RunResult unlimited = run_forest(cfg, seed);
      for (std::uint64_t budget : {1ull, 2ull, 8ull}) {
        cfg.resident_trees = budget;
        const RunResult r = run_forest(cfg, seed);
        EXPECT_EQ(r.registry_json, unlimited.registry_json)
            << "seed=" << seed << " shards=" << shards
            << " budget=" << budget;
        EXPECT_EQ(r.stats.events, unlimited.stats.events);
        EXPECT_EQ(r.stats.granted, unlimited.stats.granted);
        EXPECT_EQ(r.stats.handoffs, unlimited.stats.handoffs);
        // Eviction only triggers where a shard hosts more trees than its
        // budget (trees stripe modulo shards).
        const std::uint64_t max_per_shard =
            (cfg.mux.trees + shards - 1) / shards;
        if (budget < max_per_shard) {
          EXPECT_GT(r.stats.hibernations, 0u)
              << "seed=" << seed << " shards=" << shards
              << " budget=" << budget << ": starved budget must evict";
          EXPECT_GT(r.stats.wakes, 0u);
          EXPECT_GT(r.stats.hibernate_bits, 0u);
        }
      }
    }
  }
}

TEST(ForestMemory, SpansIdenticalAtAnyResidentBudget) {
  // Causal spans ride the same determinism contract as the registry.
  auto spans_json = [](std::uint64_t budget) {
    ForestConfig cfg = small_config(3);
    cfg.resident_trees = budget;
    obs::SpanSink sink(std::size_t{1} << 15);
    obs::ScopedSpans span_scope(sink);
    obs::Registry reg;
    ForestEngine engine(cfg, 66);
    {
      obs::ScopedMetrics scope(reg);
      (void)engine.run();
    }
    return sink.to_json().dump();
  };
  const std::string unlimited = spans_json(0);
  EXPECT_EQ(spans_json(1), unlimited);
  EXPECT_EQ(spans_json(4), unlimited);
}

TEST(ForestMemory, TightBudgetUnderManyShards) {
  // The TSan cell: pool workers hibernating and waking trees behind the
  // window barriers, with lazy first-touch materialization on every shard.
  ForestConfig cfg = small_config(8);
  cfg.resident_trees = 1;
  const RunResult r = run_forest(cfg, 123);
  EXPECT_EQ(r.stats.requests, cfg.mux.users * cfg.mux.requests_per_user);
  EXPECT_GT(r.stats.hibernations, 0u);
  EXPECT_GT(r.stats.wakes, 0u);
}

TEST(ForestMemory, EvictionPolicyIsPinned) {
  // At each window edge the coldest (last_touch, tree_id) residents beyond
  // the budget hibernate, coldest first.  These counts pin that policy:
  // an eviction that picks a different tree set moves them.
  struct Pin {
    unsigned shards;
    std::uint64_t hibernations;
    std::uint64_t wakes;
    std::uint64_t hibernate_bits;
  };
  for (const Pin pin : {Pin{1, 130, 120, 49234}, Pin{3, 74, 68, 27888}}) {
    ForestConfig cfg = small_config(pin.shards);
    cfg.resident_trees = 2;
    const RunResult r = run_forest(cfg, 77);
    EXPECT_EQ(r.stats.tree_builds, cfg.mux.trees) << "shards " << pin.shards;
    EXPECT_EQ(r.stats.hibernations, pin.hibernations)
        << "shards " << pin.shards;
    EXPECT_EQ(r.stats.wakes, pin.wakes) << "shards " << pin.shards;
    EXPECT_EQ(r.stats.hibernate_bits, pin.hibernate_bits)
        << "shards " << pin.shards;
  }
}

TEST(ForestMemory, WindowTimeSplitsIntoSerialAndForkedParts) {
  // Wall-clock diagnostics: present, and the shards' busy time fits in
  // the forked time they ran within.
  for (unsigned shards : {1u, 3u}) {
    const RunResult r = run_forest(small_config(shards), 77);
    EXPECT_GT(r.stats.serial_ns, 0u);
    EXPECT_GT(r.stats.parallel_ns, 0u);
    EXPECT_GT(r.stats.shard_busy_ns, 0u);
    EXPECT_LE(r.stats.shard_busy_ns, shards * r.stats.parallel_ns);
  }
}

TEST(ForestMemory, MemStatsPartitionAndAccounting) {
  ForestConfig cfg = small_config(2);
  cfg.resident_trees = 2;
  ForestEngine engine(cfg, 9);
  (void)engine.run();
  const ForestMemStats m = engine.mem_stats();
  EXPECT_EQ(m.trees, cfg.mux.trees);
  EXPECT_EQ(m.resident + m.hibernated, m.materialized);
  EXPECT_EQ(m.materialized + m.virgin, m.trees);
  EXPECT_LE(m.resident, 2u * cfg.shards) << "per-shard budget enforced";
  EXPECT_GT(m.hibernated, 0u);
  EXPECT_GT(m.image_bytes, 0u);
  EXPECT_GT(m.arena_bytes, 0u);
  EXPECT_GT(m.index_bytes, 0u);
  EXPECT_EQ(m.accounting_bytes(),
            m.arena_bytes + m.image_bytes + m.index_bytes);
}

TEST(ForestMemory, NeverTouchedForestCostsOnlyTheIndex) {
  // A lazily-constructed engine with zero requests materializes nothing.
  ForestConfig cfg = small_config(1);
  cfg.mux.trees = 10'000;
  cfg.mux.requests_per_user = 0;
  ForestEngine engine(cfg, 4);
  const ForestMemStats m = engine.mem_stats();
  EXPECT_EQ(m.virgin, 10'000u);
  EXPECT_EQ(m.materialized, 0u);
  EXPECT_EQ(m.arena_bytes, 0u);
  EXPECT_LT(m.index_bytes / m.trees, 32u) << "a few dozen bytes per tree";
}

// ---- tenant destroy ---------------------------------------------------------

TEST(ForestDestroy, DeterministicAcrossShardsAndBudgets) {
  ForestConfig cfg = small_config(1);
  cfg.mux.destroy_fraction = 0.12;
  obs::Registry reg;
  {
    ForestEngine engine(cfg, 202);
    obs::ScopedMetrics scope(reg);
    (void)engine.run();
  }
  EXPECT_GT(reg.counter("forest.ops.destroy"), 0u);
  EXPECT_EQ(reg.counter("forest.ops.permit") +
                reg.counter("forest.ops.grow") +
                reg.counter("forest.ops.shrink") +
                reg.counter("forest.ops.destroy"),
            reg.counter("forest.requests.total"));
  const RunResult serial = run_forest(cfg, 202);
  cfg.shards = 4;
  const RunResult sharded = run_forest(cfg, 202);
  EXPECT_EQ(serial.registry_json, sharded.registry_json);
  cfg.resident_trees = 1;
  const RunResult starved = run_forest(cfg, 202);
  EXPECT_EQ(starved.registry_json, serial.registry_json)
      << "destroy + hibernation must still be byte-identical";
}

}  // namespace
}  // namespace dyncon::forest

// ---- hibernation round-trip (component level) -------------------------------

namespace dyncon::forest {
namespace {

/// Drive `steps` deterministic ops against a controller-backed tree,
/// mirroring the engine's serve() draws.  Mutates grown/grows like the
/// engine does.
void drive(tree::DynamicTree& t, core::CentralizedController& ctrl, Rng& rng,
           std::vector<NodeId>& grown, std::uint64_t& grows,
           std::uint64_t tree_size, int steps) {
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t pick = rng.next() % 4;
    if (pick == 0) {
      const NodeId parent =
          static_cast<NodeId>(rng.index(static_cast<std::size_t>(tree_size)));
      const core::Result res = ctrl.request_add_leaf(parent);
      if (res.granted()) {
        grown.push_back(res.new_node);
        ++grows;
      }
    } else if (pick == 1 && !grown.empty()) {
      const core::Result res = ctrl.request_remove(grown.back());
      if (res.granted()) grown.pop_back();
    } else {
      const NodeId site =
          static_cast<NodeId>(rng.index(static_cast<std::size_t>(tree_size)));
      (void)ctrl.request_event(site);
    }
  }
  (void)t;
}

TEST(HibernateRoundTrip, CaptureEncodeDecodeRestoreIsLossless) {
  constexpr std::uint64_t kTreeSize = 16;
  ForestConfig cfg;
  cfg.tree_size = kTreeSize;
  const core::Params params = tree_params(cfg);
  core::CentralizedController::Options opts;
  opts.track_domains = false;

  for (std::uint64_t seed : {1ull, 99ull, 4242ull}) {
    // Original timeline: build, drive, capture.
    tree::DynamicTree t1;
    Rng build1(seed);
    build_initial_topology(t1, build1, kTreeSize);
    core::CentralizedController c1(t1, params, opts);
    Rng rng1(seed ^ 0xabcdefULL);
    std::vector<NodeId> grown1;
    std::uint64_t grows1 = 0;
    drive(t1, c1, rng1, grown1, grows1, kTreeSize, 60);

    TreeImage img;
    capture_tree_image(img, t1, &c1, rng1, grown1, grows1);
    const sim::Encoded enc = encode_tree_image(img);
    EXPECT_EQ(enc.bits, tree_image_bits(img)) << "counter and writer agree";
    const TreeImage dec = decode_tree_image(enc);
    EXPECT_EQ(img, dec) << "codec round-trip, seed=" << seed;

    // Rematerialize exactly as wake() does.
    tree::DynamicTree t2;
    Rng build2(seed);
    build_initial_topology(t2, build2, kTreeSize);
    replay_grown_nodes(t2, dec);
    EXPECT_EQ(t2.total_ever(), t1.total_ever());
    EXPECT_EQ(t2.size(), t1.size());
    core::CentralizedController c2(t2, params, opts);
    c2.restore_image(dec.ctrl);
    Rng rng2(1);  // state overwritten below
    rng2.set_state(dec.rng_state);
    std::vector<NodeId> grown2;
    grown2.reserve(dec.grown.size());
    for (const auto& [id, parent] : dec.grown) grown2.push_back(id);
    std::uint64_t grows2 = dec.grows;

    // Both timelines must now evolve identically: same draws, same grants,
    // same captured state afterwards.
    drive(t1, c1, rng1, grown1, grows1, kTreeSize, 40);
    drive(t2, c2, rng2, grown2, grows2, kTreeSize, 40);
    TreeImage after1;
    TreeImage after2;
    capture_tree_image(after1, t1, &c1, rng1, grown1, grows1);
    capture_tree_image(after2, t2, &c2, rng2, grown2, grows2);
    EXPECT_EQ(after1, after2) << "post-wake divergence, seed=" << seed;
    EXPECT_EQ(c1.cost(), c2.cost());
  }
}

TEST(HibernateRoundTrip, EchoImageHasNoController) {
  tree::DynamicTree t;
  Rng build(7);
  build_initial_topology(t, build, 8);
  Rng rng(8);
  TreeImage img;
  capture_tree_image(img, t, nullptr, rng, {}, 0);
  EXPECT_FALSE(img.has_ctrl);
  const TreeImage dec = decode_tree_image(encode_tree_image(img));
  EXPECT_EQ(img, dec);
}

TEST(HibernateRoundTrip, VersionOneImageIsRejected) {
  // Version 1 carried package ids and the table's next_id; its bodies
  // cannot be read as version 2, so the tag alone refuses them.
  tree::DynamicTree t;
  Rng build(7);
  build_initial_topology(t, build, 8);
  Rng rng(8);
  TreeImage img;
  capture_tree_image(img, t, nullptr, rng, {}, 0);
  sim::Encoded enc = encode_tree_image(img);
  enc.bytes[0] = static_cast<std::uint8_t>((enc.bytes[0] & 0x0f) | (1 << 4));
  EXPECT_THROW((void)decode_tree_image(enc), ContractError);
}

// ---- package storage bounded by live packages -------------------------------

/// Serve `steps` requests with the forest's default op mix, the way the
/// engine's serve() does: grows past the grow cap and shrinks with nothing
/// grown are refused without touching the controller, so node ids stay
/// below the controller's U.
void serve_forest_mix(core::CentralizedController& ctrl, Rng& rng,
                      std::vector<NodeId>& grown, std::uint64_t& grows,
                      const ForestConfig& cfg, int steps) {
  const workload::MuxConfig mix;
  const std::uint64_t cap = resolved_grow_cap(cfg);
  const auto site = [&] {
    return static_cast<NodeId>(
        rng.index(static_cast<std::size_t>(cfg.tree_size)));
  };
  for (int i = 0; i < steps; ++i) {
    const double x = rng.uniform01();
    if (x < mix.grow_fraction) {
      if (grows >= cap) continue;
      const core::Result res = ctrl.request_add_leaf(site());
      if (res.granted()) {
        grown.push_back(res.new_node);
        ++grows;
      }
    } else if (x < mix.grow_fraction + mix.shrink_fraction) {
      if (grown.empty()) continue;
      if (ctrl.request_remove(grown.back()).granted()) grown.pop_back();
    } else {
      (void)ctrl.request_event(site());
    }
  }
}

core::CentralizedController::Options forest_options() {
  core::CentralizedController::Options opts;
  opts.track_domains = false;
  return opts;
}

TEST(PackageStorage, ControllerBytesFollowLivePackagesNotHistory) {
  // Claim 4.8 has no term for requests already served: a controller's
  // storage after 10^5 requests stays within a constant of its storage
  // after 10^3.
  constexpr std::uint64_t kSlackBytes = 1024;
  ForestConfig cfg;
  cfg.tree_size = 48;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    tree::DynamicTree t;
    Rng build(seed);
    build_initial_topology(t, build, cfg.tree_size);
    core::CentralizedController ctrl(t, tree_params(cfg), forest_options());
    Rng rng(seed ^ 0x5707ULL);
    std::vector<NodeId> grown;
    std::uint64_t grows = 0;
    serve_forest_mix(ctrl, rng, grown, grows, cfg, 1000);
    const std::uint64_t early = ctrl.approx_bytes();
    serve_forest_mix(ctrl, rng, grown, grows, cfg, 99000);
    EXPECT_LE(ctrl.approx_bytes(), early + kSlackBytes) << "seed " << seed;
    EXPECT_FALSE(ctrl.exhausted());
  }
}

TEST(PackageStorage, RestoredImageHoldsOnlyAlivePackages) {
  // At forest::tree_params a 48-node tree holds no package between
  // requests.  The second cell, a 1024-node tree with psi scaled by 1/16
  // (exp11's ablation knob) and 20000 permits, ends past its reject wave
  // with mobile packages left on some hosts: over a thousand alive
  // packages of mixed kinds, sharing hosts.
  struct Cell {
    std::uint64_t tree_size;
    std::uint64_t psi_den;
    std::uint64_t permits;
  };
  for (const Cell cell : {Cell{48, 1, 0}, Cell{1024, 16, 20000}}) {
    ForestConfig cfg;
    cfg.tree_size = cell.tree_size;
    cfg.permits_per_tree = cell.permits;
    const core::Params params =
        tree_params(cfg).with_psi_scale(1, cell.psi_den);
    tree::DynamicTree t1;
    Rng build1(5);
    build_initial_topology(t1, build1, cfg.tree_size);
    core::CentralizedController c1(t1, params, forest_options());
    Rng rng1(6);
    std::vector<NodeId> grown1;
    std::uint64_t grows1 = 0;
    serve_forest_mix(c1, rng1, grown1, grows1, cfg, 100000);

    TreeImage img;
    capture_tree_image(img, t1, &c1, rng1, grown1, grows1);
    const TreeImage dec = decode_tree_image(encode_tree_image(img));
    ASSERT_EQ(img, dec);
    const std::vector<core::PackageTable::Record>& alive =
        dec.ctrl.packages.alive;
    if (cell.permits != 0) {
      EXPECT_GT(alive.size(), cell.tree_size);
    }

    tree::DynamicTree t2;
    Rng build2(5);
    build_initial_topology(t2, build2, cfg.tree_size);
    replay_grown_nodes(t2, dec);
    core::CentralizedController c2(t2, params, forest_options());
    c2.restore_image(dec.ctrl);

    // One slot per alive package, and the same bytes as a table that
    // holds those packages with no history behind it.
    EXPECT_EQ(c2.packages().slot_count(), alive.size());
    core::PackageTable bare;
    bare.restore_image(core::PackageTable::Image{0, alive});
    EXPECT_EQ(c2.approx_bytes(), bare.approx_bytes());
    EXPECT_LE(c2.approx_bytes(), c1.approx_bytes());

    // The restored controller carries on exactly as the original.
    Rng rng2(1);
    rng2.set_state(dec.rng_state);
    std::vector<NodeId> grown2;
    for (const auto& [id, parent] : dec.grown) grown2.push_back(id);
    std::uint64_t grows2 = dec.grows;
    serve_forest_mix(c1, rng1, grown1, grows1, cfg, 2000);
    serve_forest_mix(c2, rng2, grown2, grows2, cfg, 2000);
    TreeImage after1;
    TreeImage after2;
    capture_tree_image(after1, t1, &c1, rng1, grown1, grows1);
    capture_tree_image(after2, t2, &c2, rng2, grown2, grows2);
    EXPECT_EQ(after1, after2) << "psi " << params.psi();
    EXPECT_EQ(c1.cost(), c2.cost());
  }
}

// ---- controllers kept across slab recycling ---------------------------------

/// Serve `steps` forest-mix requests on `a` and `b` in lockstep — two
/// controllers over identically built trees — and require every
/// observable to agree after each request.
void serve_lockstep(core::CentralizedController& a,
                    core::CentralizedController& b, Rng& rng,
                    std::vector<NodeId>& grown, std::uint64_t& grows,
                    const ForestConfig& cfg, int steps) {
  const workload::MuxConfig mix;
  const std::uint64_t cap = resolved_grow_cap(cfg);
  core::CentralizedController::Image ia;
  core::CentralizedController::Image ib;
  for (int i = 0; i < steps; ++i) {
    const double x = rng.uniform01();
    const auto site = static_cast<NodeId>(
        rng.index(static_cast<std::size_t>(cfg.tree_size)));
    core::Result ra;
    core::Result rb;
    if (x < mix.grow_fraction) {
      if (grows >= cap) continue;
      ra = a.request_add_leaf(site);
      rb = b.request_add_leaf(site);
      if (ra.granted()) {
        grown.push_back(ra.new_node);
        ++grows;
      }
    } else if (x < mix.grow_fraction + mix.shrink_fraction) {
      if (grown.empty()) continue;
      ra = a.request_remove(grown.back());
      rb = b.request_remove(grown.back());
      if (ra.granted()) grown.pop_back();
    } else {
      ra = a.request_event(site);
      rb = b.request_event(site);
    }
    ASSERT_EQ(ra.outcome, rb.outcome) << "request " << i;
    ASSERT_EQ(ra.new_node, rb.new_node) << "request " << i;
    ASSERT_EQ(a.cost(), b.cost()) << "request " << i;
    ASSERT_EQ(a.root_storage(), b.root_storage()) << "request " << i;
    ASSERT_EQ(a.permits_granted(), b.permits_granted()) << "request " << i;
    a.extract_image(ia);
    b.extract_image(ib);
    ASSERT_EQ(ia, ib) << "request " << i;
  }
}

/// The default forest parameters, and a cell (psi / 16, 2000 permits)
/// that leaves mobile and reject packages alive between requests.
struct ReuseCell {
  std::uint64_t psi_den;
  std::uint64_t permits;
};
constexpr ReuseCell kReuseCells[] = {{1, 0}, {16, 2000}};

TEST(ControllerReuse, ResetControllerServesLikeAFreshOne) {
  for (const ReuseCell cell : kReuseCells) {
    ForestConfig cfg;
    cfg.tree_size = 48;
    cfg.permits_per_tree = cell.permits;
    const core::Params params =
        tree_params(cfg).with_psi_scale(1, cell.psi_den);
    tree::DynamicTree kept_tree;
    Rng build(11);
    build_initial_topology(kept_tree, build, cfg.tree_size);
    core::CentralizedController kept(kept_tree, params, forest_options());
    for (std::uint64_t tenant = 1; tenant <= 2; ++tenant) {
      if (tenant > 1) {
        // What TreeSlab::release and the slot's next materialize do.
        core::CentralizedController::Image before;
        kept.extract_image(before);
        if (cell.permits != 0) {
          EXPECT_FALSE(before.packages.alive.empty())
              << "the reset must clear live packages";
        }
        const std::uint64_t bytes = kept.approx_bytes();
        kept.reset();
        kept_tree.reset_to_root();
        Rng rebuild(10 + tenant);
        build_initial_topology(kept_tree, rebuild, cfg.tree_size);
        EXPECT_GE(kept.approx_bytes(), bytes) << "reset keeps capacity";
      }
      tree::DynamicTree fresh_tree;
      Rng fresh_build(10 + tenant);
      build_initial_topology(fresh_tree, fresh_build, cfg.tree_size);
      core::CentralizedController fresh(fresh_tree, params,
                                        forest_options());
      Rng rng(tenant);
      std::vector<NodeId> grown;
      std::uint64_t grows = 0;
      ASSERT_NO_FATAL_FAILURE(
          serve_lockstep(kept, fresh, rng, grown, grows, cfg, 3000))
          << "psi_den " << cell.psi_den << " tenant " << tenant;
    }
  }
}

TEST(ControllerReuse, RestoreOntoResetEqualsRestoreOntoFresh) {
  for (const ReuseCell cell : kReuseCells) {
    ForestConfig cfg;
    cfg.tree_size = 48;
    cfg.permits_per_tree = cell.permits;
    const core::Params params =
        tree_params(cfg).with_psi_scale(1, cell.psi_den);
    // The tree to hibernate.
    tree::DynamicTree t1;
    Rng build1(5);
    build_initial_topology(t1, build1, cfg.tree_size);
    core::CentralizedController c1(t1, params, forest_options());
    Rng rng1(6);
    std::vector<NodeId> grown1;
    std::uint64_t grows1 = 0;
    serve_forest_mix(c1, rng1, grown1, grows1, cfg, 3000);
    TreeImage img;
    capture_tree_image(img, t1, &c1, rng1, grown1, grows1);

    // A slot whose controller served another tree and was reset, and a
    // fresh controller; both wake the image.
    tree::DynamicTree kept_tree;
    Rng build_other(9);
    build_initial_topology(kept_tree, build_other, cfg.tree_size);
    core::CentralizedController kept(kept_tree, params, forest_options());
    Rng rng_other(10);
    std::vector<NodeId> grown_other;
    std::uint64_t grows_other = 0;
    serve_forest_mix(kept, rng_other, grown_other, grows_other, cfg, 3000);
    kept.reset();
    kept_tree.reset_to_root();
    Rng rebuild(5);
    build_initial_topology(kept_tree, rebuild, cfg.tree_size);
    replay_grown_nodes(kept_tree, img);
    kept.restore_image(img.ctrl);

    tree::DynamicTree fresh_tree;
    Rng fresh_build(5);
    build_initial_topology(fresh_tree, fresh_build, cfg.tree_size);
    replay_grown_nodes(fresh_tree, img);
    core::CentralizedController fresh(fresh_tree, params, forest_options());
    fresh.restore_image(img.ctrl);

    core::CentralizedController::Image a;
    core::CentralizedController::Image b;
    kept.extract_image(a);
    fresh.extract_image(b);
    EXPECT_EQ(a, img.ctrl);
    EXPECT_EQ(a, b);
    Rng rng2(1);
    rng2.set_state(img.rng_state);
    std::vector<NodeId> grown2;
    for (const auto& [id, parent] : img.grown) grown2.push_back(id);
    std::uint64_t grows2 = img.grows;
    ASSERT_NO_FATAL_FAILURE(
        serve_lockstep(kept, fresh, rng2, grown2, grows2, cfg, 1000))
        << "psi_den " << cell.psi_den;
  }
}

TEST(ControllerReuse, ResetRefusesDomainTracking) {
  tree::DynamicTree t;
  Rng build(3);
  build_initial_topology(t, build, 8);
  ForestConfig cfg;
  cfg.tree_size = 8;
  core::CentralizedController ctrl(t, tree_params(cfg));
  EXPECT_THROW(ctrl.reset(), ContractError);
}

}  // namespace
}  // namespace dyncon::forest

// ---- request mux ------------------------------------------------------------

namespace dyncon::workload {
namespace {

MuxConfig mux_config() {
  MuxConfig cfg;
  cfg.users = 40;
  cfg.trees = 10;
  cfg.requests_per_user = 5;
  return cfg;
}

TEST(RequestMux, InitialRequestsOnePerUserSorted) {
  RequestMux mux(mux_config(), 17);
  const auto reqs = mux.initial_requests();
  ASSERT_EQ(reqs.size(), 40u);
  std::set<std::uint64_t> users;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    users.insert(reqs[i].user);
    EXPECT_LT(reqs[i].tree, 10u);
    if (i > 0) {
      const bool ordered =
          reqs[i - 1].ready < reqs[i].ready ||
          (reqs[i - 1].ready == reqs[i].ready &&
           reqs[i - 1].user < reqs[i].user);
      EXPECT_TRUE(ordered) << "at " << i;
    }
  }
  EXPECT_EQ(users.size(), 40u);
  EXPECT_THROW((void)mux.initial_requests(), ContractError);
}

TEST(RequestMux, NextRequestHonorsFloorAndBudget) {
  RequestMux mux(mux_config(), 17);
  (void)mux.initial_requests();
  MuxRequest req;
  std::uint64_t served = 1;  // the initial request
  while (mux.next_request(/*user=*/7, /*done=*/100, /*floor=*/5000, req)) {
    EXPECT_GE(req.ready, 5000u) << "floor is the earliest admissible time";
    EXPECT_EQ(req.user, 7u);
    ++served;
  }
  EXPECT_EQ(served, mux_config().requests_per_user);
  EXPECT_FALSE(mux.next_request(7, 0, 0, req)) << "budget stays exhausted";
}

TEST(RequestMux, StreamsDependOnlyOnSeedAndUser) {
  // The same user replayed with the same completion times must draw the
  // same requests, whatever other users did in between — the property the
  // forest's shard-count invariance rests on.
  auto draw_user3 = [](bool interleave_others) {
    RequestMux mux(mux_config(), 99);
    (void)mux.initial_requests();
    std::vector<MuxRequest> got;
    MuxRequest req;
    for (int round = 0; round < 4; ++round) {
      if (interleave_others) {
        for (std::uint64_t u : {1ull, 5ull, 9ull}) {
          (void)mux.next_request(u, 10 * (round + 1), 0, req);
        }
      }
      if (mux.next_request(3, 10 * (round + 1), 0, req)) got.push_back(req);
    }
    return got;
  };
  const auto quiet = draw_user3(false);
  const auto busy = draw_user3(true);
  ASSERT_EQ(quiet.size(), busy.size());
  for (std::size_t i = 0; i < quiet.size(); ++i) {
    EXPECT_EQ(quiet[i].ready, busy[i].ready) << i;
    EXPECT_EQ(quiet[i].tree, busy[i].tree) << i;
    EXPECT_EQ(quiet[i].op, busy[i].op) << i;
  }
}

TEST(RequestMux, OpMixRoughlyMatchesFractions) {
  MuxConfig cfg = mux_config();
  cfg.users = 400;
  cfg.requests_per_user = 10;
  cfg.grow_fraction = 0.3;
  cfg.shrink_fraction = 0.2;
  RequestMux mux(cfg, 7);
  std::uint64_t grow = 0, shrink = 0, total = 0;
  for (const auto& r : mux.initial_requests()) {
    grow += r.op == ForestOp::kGrow;
    shrink += r.op == ForestOp::kShrink;
    ++total;
  }
  MuxRequest req;
  for (std::uint64_t u = 0; u < cfg.users; ++u) {
    while (mux.next_request(u, 1, 0, req)) {
      grow += req.op == ForestOp::kGrow;
      shrink += req.op == ForestOp::kShrink;
      ++total;
    }
  }
  EXPECT_EQ(total, mux.total_requests());
  EXPECT_NEAR(static_cast<double>(grow) / total, 0.3, 0.03);
  EXPECT_NEAR(static_cast<double>(shrink) / total, 0.2, 0.03);
}

TEST(RequestMux, DestroyFractionDrawsDestroyOps) {
  MuxConfig cfg = mux_config();
  cfg.users = 400;
  cfg.requests_per_user = 10;
  cfg.destroy_fraction = 0.25;
  RequestMux mux(cfg, 7);
  std::uint64_t destroy = 0, total = 0;
  for (const auto& r : mux.initial_requests()) {
    destroy += r.op == ForestOp::kDestroy;
    ++total;
  }
  MuxRequest req;
  for (std::uint64_t u = 0; u < cfg.users; ++u) {
    while (mux.next_request(u, 1, 0, req)) {
      destroy += req.op == ForestOp::kDestroy;
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(destroy) / total, 0.25, 0.03);
}

TEST(RequestMux, ZeroDestroyFractionDrawsNone) {
  // The default keeps every seeded stream exactly as it was before the
  // knob existed: the destroy band is empty, so no draw can land in it.
  RequestMux mux(mux_config(), 123);
  for (const auto& r : mux.initial_requests()) {
    EXPECT_NE(r.op, ForestOp::kDestroy);
  }
}

TEST(RequestMux, RejectsBadConfigs) {
  MuxConfig cfg = mux_config();
  cfg.users = 0;
  EXPECT_THROW(RequestMux(cfg, 1), ContractError);
  cfg = mux_config();
  cfg.grow_fraction = 0.8;
  cfg.shrink_fraction = 0.4;  // sums past 1.0
  EXPECT_THROW(RequestMux(cfg, 1), ContractError);
  cfg = mux_config();
  cfg.grow_fraction = 0.5;
  cfg.shrink_fraction = 0.3;
  cfg.destroy_fraction = 0.3;  // sums past 1.0 only with destroy
  EXPECT_THROW(RequestMux(cfg, 1), ContractError);
  cfg = mux_config();
  cfg.mean_think = 0;
  EXPECT_THROW(RequestMux(cfg, 1), ContractError);
}

}  // namespace
}  // namespace dyncon::workload
