// Micro-benchmarks (google-benchmark) for the hot data structures under
// the controller: event queue, dynamic tree operations, package table,
// RNG, and a full centralized request.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <new>
#include <vector>

#include "agent/convergecast.hpp"
#include "agent/durable.hpp"
#include "agent/whiteboard.hpp"
#include "forest/forest.hpp"
#include "forest/hibernate.hpp"
#include "forest/tree_slab.hpp"
#include "core/centralized_controller.hpp"
#include "core/distributed_controller.hpp"
#include "core/package.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/crash.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/watchdog.hpp"
#include "util/rng.hpp"
#include "tree/validate.hpp"
#include "workload/request_mux.hpp"
#include "workload/shapes.hpp"

// Global allocation counter (same technique as exp19_forest_scaling): count
// every operator-new so the zero-allocation claims below are measured, not
// asserted from reading the code.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace dyncon;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngNext);

void BM_EventQueueScheduleFire(benchmark::State& state) {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    q.schedule_after(1, [&sink] { ++sink; });
    q.step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueBurst(benchmark::State& state) {
  const auto burst = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::uint64_t i = 0; i < burst; ++i) {
      q.schedule_after(i % 7 + 1, [&sink] { ++sink; });
    }
    q.run();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueBurst)->Arg(64)->Arg(1024);

// ---- allocation-count benches ----------------------------------------------
//
// The simulator hot path (schedule -> fire, send -> deliver) is designed to
// be allocation-free in steady state: actions are InlineFn (inline storage),
// the heap/slab vectors amortize to zero growth, and release builds take the
// size-only encoding path.  These benches measure allocations per operation
// with the global counter and report them as a benchmark counter; in release
// builds a nonzero steady-state count aborts the bench, so a regression
// (say, a capture that silently outgrows some future fallback) fails CI
// instead of shifting a number nobody reads.

void check_steady_state_allocs(const char* what, double allocs_per_op) {
#ifdef NDEBUG
  if (allocs_per_op > 0.0) {
    std::fprintf(stderr,
                 "FATAL: %s allocates in steady state (%f allocs/op); "
                 "the zero-allocation hot-path contract is broken\n",
                 what, allocs_per_op);
    std::abort();
  }
#else
  (void)what;
  (void)allocs_per_op;
#endif
}

// Steady state for the queue-backed benches begins only once every calendar
// bucket has been touched: with a fixed delay the firing tick cycles through
// all kWindow residues, and each bucket's vector allocates its capacity on
// first use (amortized — bounded by kWindow over a whole run, never again
// after one full cycle).  Warming fewer than kWindow events would count
// those one-time growths as steady-state allocations and trip the gate.
constexpr int kQueueWarmup = static_cast<int>(sim::EventQueue::kWindow) + 64;

void BM_EventQueueScheduleAllocs(benchmark::State& state) {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  // Warm up: first schedules grow heap/slab/buckets; steady state reuses.
  for (int i = 0; i < kQueueWarmup; ++i) {
    q.schedule_after(1, [&sink] { ++sink; });
    q.step();
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    q.schedule_after(1, [&sink] { ++sink; });
    q.step();
    ++ops;
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  const double per_op =
      ops ? static_cast<double>(after - before) / static_cast<double>(ops) : 0;
  state.counters["allocs_per_op"] = per_op;
  check_steady_state_allocs("EventQueue::schedule_after/step", per_op);
}
BENCHMARK(BM_EventQueueScheduleAllocs);

void BM_NetworkSendAllocs(benchmark::State& state) {
  sim::EventQueue q;
  sim::Network net(q, sim::make_delay(sim::DelayKind::kFixed, 1));
  std::uint64_t sink = 0;
  const sim::Message msg = sim::Message::agent_hop(7, 3, 5, 1, 2, true);
  for (int i = 0; i < kQueueWarmup; ++i) {  // warm up heap/slab/buckets
    net.send(0, 1, msg, [&sink] { ++sink; });
    q.step();
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    net.send(0, 1, msg, [&sink] { ++sink; });
    q.step();
    ++ops;
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  const double per_op =
      ops ? static_cast<double>(after - before) / static_cast<double>(ops) : 0;
  state.counters["allocs_per_op"] = per_op;
  // Debug builds legitimately allocate here (encode() materializes bytes for
  // the round-trip check); the release contract is zero.
  check_steady_state_allocs("Network::send/deliver", per_op);
}
BENCHMARK(BM_NetworkSendAllocs);

void BM_WatchdogArmDisarmAllocs(benchmark::State& state) {
  // The PR-4 contract, extended to the watchdog in the crash-fault PR:
  // arm/disarm run once per request on the hot path, the label is a
  // `const char*` (interned string literal, never copied), and entries
  // live in a reused slab — so steady state is allocation-free.  Each
  // iteration steps the queue once to fire the (stale) deadline event, so
  // the event heap recycles instead of growing.
  sim::EventQueue q;
  sim::Watchdog wd(q, /*deadline=*/1);
  for (int i = 0; i < kQueueWarmup; ++i) {  // warm up slab + calendar growth
    wd.disarm(wd.arm(0, "warmup"));
    q.step();
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    wd.disarm(wd.arm(0, "bench"));
    q.step();
    ++ops;
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  const double per_op =
      ops ? static_cast<double>(after - before) / static_cast<double>(ops) : 0;
  state.counters["allocs_per_op"] = per_op;
  check_steady_state_allocs("Watchdog::arm/disarm", per_op);
  wd.verify_idle();
}
BENCHMARK(BM_WatchdogArmDisarmAllocs);

void BM_TreeSlabAcquireReleaseAllocs(benchmark::State& state) {
  // The forest's per-tree arena: a hibernation cycle is release -> (later)
  // acquire, and the slab machinery itself — free-list pop/push, in-place
  // slot reset — must be allocation-free once the first chunk exists.
  // (Rebuilding the slot's tree is gated by BM_TreeRebuildAllocs.)
  forest::TreeSlab slab;
  for (int i = 0; i < 256; ++i) {  // warm up: first chunk + free list
    slab.release(slab.acquire());
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const std::uint32_t slot = slab.acquire();
    sink += slab.at(slot).tree.size();
    slab.release(slot);
    ++ops;
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  const double per_op =
      ops ? static_cast<double>(after - before) / static_cast<double>(ops) : 0;
  state.counters["allocs_per_op"] = per_op;
  check_steady_state_allocs("TreeSlab::acquire/release", per_op);
}
BENCHMARK(BM_TreeSlabAcquireReleaseAllocs);

void BM_TreeRebuildAllocs(benchmark::State& state) {
  // The forest's wake path on a recycled slot: release -> acquire -> the
  // seeded 48-node build -> replay of an image whose id space holds grown
  // leaves and dead ids -> restore of a controller image holding packages
  // into the slot's kept controller -> one served request.  The slot's
  // tree keeps its node storage across reset_to_root(), its controller
  // keeps its package storage across reset(), and ports are computed, not
  // stored, so once the slot has held this tree the rebuild must not touch
  // the allocator.
  constexpr std::uint64_t kTreeSize = 48;
  constexpr std::uint64_t kBuildSeed = 0x5eed5eedULL;
  forest::ForestConfig cfg;
  cfg.tree_size = kTreeSize;
  // psi / 16 over a chain of grown leaves: requests at depth leave mobile
  // packages alive between requests.
  const core::Params params = forest::tree_params(cfg).with_psi_scale(1, 16);
  core::CentralizedController::Options opts;
  opts.track_domains = false;
  forest::TreeImage img;
  NodeId deepest = kTreeSize - 1;
  {
    tree::DynamicTree t;
    Rng build_rng(kBuildSeed);
    forest::build_initial_topology(t, build_rng, kTreeSize);
    std::vector<NodeId> grown;
    for (NodeId i = 0; i < 24; ++i) {
      const NodeId u = t.add_leaf(deepest);
      if (i % 3 == 2) {
        t.remove_leaf(u);  // a dead id the replay must burn
      } else {
        grown.push_back(u);
        deepest = u;
      }
    }
    core::CentralizedController ctrl(t, params, opts);
    for (const NodeId u : grown) (void)ctrl.request_event(u);
    forest::capture_tree_image(img, t, &ctrl, build_rng, grown,
                               grown.size());
  }
  if (img.ctrl.packages.alive.empty()) {
    std::fprintf(stderr, "FATAL: BM_TreeRebuildAllocs image holds no "
                         "package; the controller restore is not gated\n");
    std::abort();
  }
  forest::TreeSlab slab;
  std::uint32_t slot = slab.acquire();
  auto rebuild = [&] {
    slab.release(slot);
    slot = slab.acquire();
    forest::LiveTree& lt = slab.at(slot);
    Rng build_rng(kBuildSeed);
    forest::build_initial_topology(lt.tree, build_rng, kTreeSize);
    forest::replay_grown_nodes(lt.tree, img);
    if (!lt.ctrl.has_value()) lt.ctrl.emplace(lt.tree, params, opts);
    lt.ctrl->restore_image(img.ctrl);
    return lt.ctrl->request_event(deepest).granted() + lt.tree.size();
  };
  for (int i = 0; i < 4; ++i) rebuild();  // warm up: size the kept storage
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += rebuild();
    ++ops;
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  const double per_op =
      ops ? static_cast<double>(after - before) / static_cast<double>(ops) : 0;
  state.counters["allocs_per_op"] = per_op;
  check_steady_state_allocs(
      "build_initial_topology/replay_grown_nodes/restore_image", per_op);
}
BENCHMARK(BM_TreeRebuildAllocs);

void BM_HibernateEncodeAllocs(benchmark::State& state) {
  // Hibernating a tree encodes its TreeImage into a recycled byte buffer
  // (the frozen-slot free list hands the last Encoded back to BitWriter's
  // reuse constructor).  After the first encode sizes the buffer, the
  // capture -> encode cycle must not touch the allocator.
  tree::DynamicTree t;
  Rng build_rng(0x51ab51abULL);
  forest::build_initial_topology(t, build_rng, 48);
  std::vector<NodeId> grown;
  for (int i = 0; i < 8; ++i) {
    grown.push_back(t.add_leaf(static_cast<NodeId>(i)));
  }
  Rng tree_rng(0xfeedbeefULL);
  forest::TreeImage img;
  sim::Encoded enc;
  {
    // Warm up: capture once (sizes img.grown) and encode once (sizes the
    // byte buffer).
    forest::capture_tree_image(img, t, nullptr, tree_rng, grown,
                               grown.size());
    enc = forest::encode_tree_image(img, std::move(enc));
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    forest::capture_tree_image(img, t, nullptr, tree_rng, grown,
                               grown.size());
    enc = forest::encode_tree_image(img, std::move(enc));
    sink += enc.bits;
    ++ops;
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  const double per_op =
      ops ? static_cast<double>(after - before) / static_cast<double>(ops) : 0;
  state.counters["allocs_per_op"] = per_op;
  check_steady_state_allocs("capture/encode_tree_image", per_op);
}
BENCHMARK(BM_HibernateEncodeAllocs);

void BM_ReliableChannelFrameAllocs(benchmark::State& state) {
  // One logical send per iteration through the ARQ channel over a drop +
  // crash fault stack, run to quiescence: the data frame, retransmits
  // across drops and down windows, in-order release, the cumulative ack
  // and the stale timers.  The link entry, its window ring, the pending
  // slab and each slot's payload buffer are warm after the first sends, so
  // steady state must not allocate.  (No duplicating adversary: duplicated
  // copies take the network's boxed cold path, outside this contract.)
  sim::EventQueue q;
  sim::Network net(q, sim::make_delay(sim::DelayKind::kFixed, 1));
  const sim::CrashSchedule crashes(Rng(7), /*node_fraction=*/1.0,
                                   /*period=*/512, /*down_len=*/64);
  net.set_fault_policy(sim::make_crash_stack(
      std::make_unique<sim::DropFault>(Rng(3), 0.2),
      std::make_shared<const sim::CrashSchedule>(crashes)));
  net.enable_reliability();
  // Give every calendar bucket and the far heap their capacity up front:
  // with backoff timers the firing ticks wander over all kWindow residues.
  q.reserve(64);
  for (SimTime d = 0; d < sim::EventQueue::kWindow; ++d) {
    for (int k = 0; k < 4; ++k) q.schedule_after(d, [] {});
  }
  q.run();
  std::uint64_t delivered = 0;
  const sim::Message msg = sim::Message::agent_hop(7, 3, 5, 1, 2, true);
  for (int i = 0; i < 64; ++i) {
    net.send(0, 1, msg, [&delivered] { ++delivered; });
    q.run();
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    net.send(0, 1, msg, [&delivered] { ++delivered; });
    q.run();
    ++ops;
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  if (delivered != ops + 64 || net.channel()->in_flight() != 0) {
    std::fprintf(stderr, "FATAL: reliable channel lost or kept a frame\n");
    std::abort();
  }
  const double per_op =
      ops ? static_cast<double>(after - before) / static_cast<double>(ops) : 0;
  state.counters["allocs_per_op"] = per_op;
  state.counters["retransmits_per_op"] =
      static_cast<double>(net.channel()->stats().retransmits) /
      static_cast<double>(ops + 64);
  // Debug builds legitimately allocate here (every transmission is encoded
  // for the round-trip check); the release contract is zero.
  check_steady_state_allocs("ReliableChannel::send/deliver/ack", per_op);
}
BENCHMARK(BM_ReliableChannelFrameAllocs);

void BM_DurablePersistAllocs(benchmark::State& state) {
  // The durable-whiteboard journal: the provider fills the store's reused
  // scratch snapshot and persist() encodes it into the node's existing
  // slot.  Once every slot has held every board shape (and the scratch
  // queue the longest waiter queue), a journal write must not allocate.
  constexpr std::size_t kBoards = 64;
  Rng rng(0xd0ab1eULL);
  std::vector<agent::BoardSnapshot> boards(kBoards);
  for (std::size_t i = 0; i < kBoards; ++i) {
    agent::BoardSnapshot& b = boards[i];
    b.locked = i % 4 != 0;
    b.locked_by = b.locked ? rng.uniform(0, 1u << 20) : agent::kNoAgent;
    b.down_child = i % 5 == 0 ? kNoNode : rng.uniform(0, 1024);
    b.flooded = i % 7 == 0;
    for (std::size_t k = 0; k < i % 4; ++k) {
      agent::ParkedAgent p;
      p.agent = rng.uniform(0, 1u << 20);
      p.came_from = rng.uniform(0, 1024);
      p.origin = rng.uniform(0, 1024);
      p.distance = rng.uniform(0, 32);
      p.phase = 1;
      p.req_subject = p.origin;
      b.queue.push_back(p);
    }
  }
  std::size_t shift = 0;
  agent::DurableStore store(
      [&boards, &shift](NodeId v, agent::BoardSnapshot& out) {
        out = boards[(v + shift) % kBoards];
      });
  for (shift = 0; shift < kBoards; ++shift) {
    for (NodeId v = 0; v < kBoards; ++v) store.persist(v);
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    shift = (ops / kBoards) % kBoards;
    store.persist(ops % kBoards);
    ++ops;
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  benchmark::DoNotOptimize(store.bits_written());
  const double per_op =
      ops ? static_cast<double>(after - before) / static_cast<double>(ops) : 0;
  state.counters["allocs_per_op"] = per_op;
  check_steady_state_allocs("DurableStore::persist", per_op);
}
BENCHMARK(BM_DurablePersistAllocs);

void BM_TreeAddRemoveLeaf(benchmark::State& state) {
  tree::DynamicTree t;
  for (auto _ : state) {
    const NodeId u = t.add_leaf(t.root());
    t.remove_leaf(u);
  }
}
BENCHMARK(BM_TreeAddRemoveLeaf);

void BM_TreeDepthQuery(benchmark::State& state) {
  Rng rng(3);
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kPath,
                  static_cast<std::uint64_t>(state.range(0)), rng);
  const NodeId deep = t.alive_nodes().back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.depth(deep));
  }
}
BENCHMARK(BM_TreeDepthQuery)->Arg(64)->Arg(1024);

void BM_PackageSplitCycle(benchmark::State& state) {
  for (auto _ : state) {
    core::PackageTable tbl;
    core::PackageId p = tbl.create_mobile(0, 6, 64);
    // Split all the way down to level 0.
    for (int lvl = 6; lvl > 0; --lvl) {
      auto [a, b] = tbl.split_mobile(p);
      tbl.cancel(a);
      p = b;
    }
    benchmark::DoNotOptimize(tbl.permits_in_packages());
  }
}
BENCHMARK(BM_PackageSplitCycle);

void BM_CentralizedRequest(benchmark::State& state) {
  Rng rng(5);
  tree::DynamicTree t;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  workload::build(t, workload::Shape::kRandomAttach, n, rng);
  core::CentralizedController::Options opts;
  opts.track_domains = false;
  // Effectively unbounded M so the loop never exhausts; U sized for a
  // replay of 2,000,000 requests (4n + 2M).
  core::CentralizedController ctrl(
      t, core::Params(1u << 30, 1u << 29, 4 * n + 2'000'000), opts);
  const auto nodes = t.alive_nodes();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctrl.request_event(nodes[i++ % nodes.size()]).outcome);
  }
}
BENCHMARK(BM_CentralizedRequest)->Arg(256)->Arg(4096);

void BM_CentralizedRequestAllocs(benchmark::State& state) {
  // One forest tree's controller: forest::tree_params on a 48-node tree,
  // serving the forest's default op mix the way the engine does (grows past
  // the grow cap are refused, so node ids stay below U).  Package slots are
  // recycled and the filler search reuses one path buffer, so a warm
  // request must not touch the allocator.
  forest::ForestConfig cfg;
  cfg.tree_size = 48;
  const std::uint64_t cap = forest::resolved_grow_cap(cfg);
  const workload::MuxConfig mix;
  tree::DynamicTree t;
  Rng build_rng(0x5eed5eedULL);
  forest::build_initial_topology(t, build_rng, cfg.tree_size);
  core::CentralizedController::Options opts;
  opts.track_domains = false;
  core::CentralizedController ctrl(t, forest::tree_params(cfg), opts);
  Rng rng(0xfeedbeefULL);
  std::vector<NodeId> grown;
  grown.reserve(cap);
  std::uint64_t grows = 0;
  auto serve = [&] {
    const auto site = static_cast<NodeId>(
        rng.index(static_cast<std::size_t>(cfg.tree_size)));
    const double x = rng.uniform01();
    if (x < mix.grow_fraction) {
      if (grows >= cap) return core::Outcome::kMoot;
      const core::Result res = ctrl.request_add_leaf(site);
      if (res.granted()) {
        grown.push_back(res.new_node);
        ++grows;
      }
      return res.outcome;
    }
    if (x < mix.grow_fraction + mix.shrink_fraction) {
      if (grown.empty()) return core::Outcome::kMoot;
      const core::Result res = ctrl.request_remove(grown.back());
      if (res.granted()) grown.pop_back();
      return res.outcome;
    }
    return ctrl.request_event(site).outcome;
  };
  // Warm up until the grow cap is spent: every node id the tree will mint
  // exists by then, so the tree's own storage has stopped growing.
  while (grows < cap) serve();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve());
    ++ops;
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  const double per_op =
      ops ? static_cast<double>(after - before) / static_cast<double>(ops) : 0;
  state.counters["allocs_per_op"] = per_op;
  check_steady_state_allocs("CentralizedController request (forest mix)",
                            per_op);
}
BENCHMARK(BM_CentralizedRequestAllocs);

void BM_DistributedRequest(benchmark::State& state) {
  Rng rng(7);
  sim::EventQueue queue;
  sim::Network net(queue,
                   sim::make_delay(sim::DelayKind::kFixed, 1));
  tree::DynamicTree t;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  workload::build(t, workload::Shape::kRandomAttach, n, rng);
  core::DistributedController::Options opts;
  opts.track_domains = false;
  core::DistributedController ctrl(
      net, t, core::Params(1u << 30, 1u << 29, 2 * n), opts);
  core::DistributedSyncFacade facade(queue, ctrl);
  const auto nodes = t.alive_nodes();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        facade.request_event(nodes[i++ % nodes.size()]).outcome);
  }
}
BENCHMARK(BM_DistributedRequest)->Arg(256)->Arg(2048);

void BM_Convergecast(benchmark::State& state) {
  Rng rng(9);
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kFixed, 1));
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach,
                  static_cast<std::uint64_t>(state.range(0)), rng);
  agent::Convergecast cast(net, t);
  for (auto _ : state) {
    std::uint64_t out = 0;
    cast.count_nodes([&](std::uint64_t n2) { out = n2; });
    queue.run();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Convergecast)->Arg(256)->Arg(2048);

void BM_TreeValidate(benchmark::State& state) {
  Rng rng(11);
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach,
                  static_cast<std::uint64_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree::validate(t).valid);
  }
}
BENCHMARK(BM_TreeValidate)->Arg(256)->Arg(2048);

// Instrumentation overhead: the acceptance bar is that the uninstalled
// (no-sink) path costs one predictable branch -- these four pin it down
// against the installed path and the raw ring-buffer event write.
void BM_ObsCountNoSink(benchmark::State& state) {
  obs::install_metrics(nullptr);
  for (auto _ : state) {
    obs::count("permits.granted");
  }
}
BENCHMARK(BM_ObsCountNoSink);

void BM_ObsCountInstalled(benchmark::State& state) {
  obs::Registry reg;
  obs::ScopedMetrics scope(reg);
  for (auto _ : state) {
    obs::count("permits.granted");
  }
}
BENCHMARK(BM_ObsCountInstalled);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Registry reg;
  obs::ScopedMetrics scope(reg);
  std::uint64_t v = 1;
  for (auto _ : state) {
    obs::observe("net.message_bits", v++ & 0xffff);
  }
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsEmitNoSink(benchmark::State& state) {
  obs::install_trace(nullptr);
  for (auto _ : state) {
    obs::emit(obs::TraceEvent{obs::EventKind::kAgentHop, 0, 1, 2, 3});
  }
}
BENCHMARK(BM_ObsEmitNoSink);

void BM_ObsEmitInstalled(benchmark::State& state) {
  obs::EventTrace trace(1024);
  trace.enable(true);
  obs::ScopedTrace scope(trace);
  for (auto _ : state) {
    obs::emit(obs::TraceEvent{obs::EventKind::kAgentHop, 0, 1, 2, 3});
  }
}
BENCHMARK(BM_ObsEmitInstalled);

// ---- same-edge coalescing ---------------------------------------------------

void BM_NetworkBatchSendAllocs(benchmark::State& state) {
  // The coalesced path end to end: two same-edge sends per iteration (the
  // second upgrades the pending plain head into a batch), one step fires
  // both members out of the batch slot.  Slots, entry vectors, and the
  // queue slab all recycle, so steady state must stay allocation-free —
  // the same contract BM_NetworkSendAllocs pins for the unbatched path.
  sim::EventQueue q;
  sim::Network net(q, sim::make_delay(sim::DelayKind::kFixed, 1));
  std::uint64_t sink = 0;
  const sim::Message msg = sim::Message::agent_hop(7, 3, 5, 1, 2, true);
  for (int i = 0; i < kQueueWarmup; ++i) {  // warm up slab/buckets/slot pool
    net.send(0, 1, msg, [&sink] { ++sink; });
    net.send(0, 1, msg, [&sink] { ++sink; });
    q.step();
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    net.send(0, 1, msg, [&sink] { ++sink; });
    net.send(0, 1, msg, [&sink] { ++sink; });
    q.step();
    ++ops;
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  const double per_op =
      ops ? static_cast<double>(after - before) / static_cast<double>(ops) : 0;
  state.counters["allocs_per_op"] = per_op;
  // Debug builds legitimately allocate here (the wire round-trip check
  // encodes every message); the release contract is zero.
  check_steady_state_allocs("Network::send coalesced/fire_batch", per_op);
}
BENCHMARK(BM_NetworkBatchSendAllocs);

// ---- whiteboard columns (PR 9) ----------------------------------------------

void BM_WhiteboardScanSoA(benchmark::State& state) {
  // The crash-recovery lock sweep's shape: one pass over the locked_by
  // column.  The SoA layout reads 8 contiguous bytes per board.
  const auto n = static_cast<std::size_t>(state.range(0));
  agent::WhiteboardManager wb;
  for (std::size_t v = 0; v < n; ++v) {
    if (v % 7 == 0) {
      wb.lock(static_cast<NodeId>(v), v, kNoNode);
    } else {
      wb.set_flooded(static_cast<NodeId>(v), false);  // grow the board only
    }
  }
  for (auto _ : state) {
    std::uint64_t locked = 0;
    for (std::size_t v = 0; v < wb.board_count(); ++v) {
      locked += wb.locked_by(static_cast<NodeId>(v)) != agent::kNoAgent;
    }
    benchmark::DoNotOptimize(locked);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WhiteboardScanSoA)->Arg(4096)->Arg(65536);

void BM_WhiteboardScanRecords(benchmark::State& state) {
  // Baseline: the pre-PR-9 record-per-node layout (deque of structs, wait
  // queue inline), striding a 100+-byte record to read one 8-byte field.
  struct Record {
    agent::AgentId locked_by = agent::kNoAgent;
    NodeId down_child = kNoNode;
    std::uint8_t flooded = 0;
    std::deque<agent::Waiter> queue;
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  std::deque<Record> boards;
  for (std::size_t v = 0; v < n; ++v) {
    boards.emplace_back();
    if (v % 7 == 0) boards.back().locked_by = v;
  }
  for (auto _ : state) {
    std::uint64_t locked = 0;
    for (const Record& r : boards) {
      locked += r.locked_by != agent::kNoAgent;
    }
    benchmark::DoNotOptimize(locked);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WhiteboardScanRecords)->Arg(4096)->Arg(65536);

void BM_WhiteboardLockUnlockAllocs(benchmark::State& state) {
  // The per-hop column writes: lock + unlock touch two 8-byte entries and
  // (queue empty) never allocate once the columns have grown.
  agent::WhiteboardManager wb;
  for (int i = 0; i < 64; ++i) {  // warm up column growth
    wb.lock(5, 1, kNoNode);
    benchmark::DoNotOptimize(wb.unlock(5, 1).has_value());
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    wb.lock(5, 1, kNoNode);
    benchmark::DoNotOptimize(wb.unlock(5, 1).has_value());
    ++ops;
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  const double per_op =
      ops ? static_cast<double>(after - before) / static_cast<double>(ops) : 0;
  state.counters["allocs_per_op"] = per_op;
  check_steady_state_allocs("WhiteboardManager::lock/unlock", per_op);
}
BENCHMARK(BM_WhiteboardLockUnlockAllocs);

// ---- counter-handle epoch cache (PR 9, S1) ----------------------------------

void BM_ObsCounterHandleRebind(benchmark::State& state) {
  // Regression guard for the thread_local-handle class of bug (the
  // package.cpp `moves_batch` shadowing): a function-local static
  // thread_local handle must re-resolve its cached slot on every registry
  // swap, never bleeding counts into a previously-installed registry.
  // Verified with real swaps before timing the steady-state add.
  static thread_local obs::CounterHandle handle("bench.rebind");
  obs::Registry a;
  obs::Registry b;
  {
    obs::ScopedMetrics scope(a);
    handle.add(1);
  }
  {
    obs::ScopedMetrics scope(b);
    handle.add(2);
  }
  {
    obs::ScopedMetrics scope(a);
    handle.add(4);
  }
  const auto count_in = [](const obs::Registry& r) -> std::uint64_t {
    const auto it = r.counters().find("bench.rebind");
    return it == r.counters().end() ? 0 : it->second;
  };
  if (count_in(a) != 5 || count_in(b) != 2) {
    std::fprintf(stderr,
                 "FATAL: CounterHandle epoch cache leaked across a registry "
                 "swap (a=%llu want 5, b=%llu want 2)\n",
                 static_cast<unsigned long long>(count_in(a)),
                 static_cast<unsigned long long>(count_in(b)));
    std::abort();
  }
  obs::ScopedMetrics scope(a);
  for (auto _ : state) {
    handle.add(1);
  }
}
BENCHMARK(BM_ObsCounterHandleRebind);

}  // namespace

BENCHMARK_MAIN();
