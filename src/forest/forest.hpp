#pragma once

// Sharded in-process forest runtime: one engine, many trees, one
// deterministic clock.
//
// The paper's controller manages a single tree; a production service faces
// a *forest* — many independent controller instances behind one front end
// (the "Maintaining a Distributed Spanning Forest" setting at service
// scale).  This engine hosts that forest:
//
//   * K shards, each owning a disjoint set of trees, its OWN
//     sim::EventQueue (with PR 4's recycled slot-slab arena), its own
//     obs::Registry (thread-confined; merged deterministically at the end),
//     and a per-shard Rng split from the run seed for shard-local
//     auxiliary draws.  All semantic randomness is per-TREE or per-USER
//     split chains, which is what makes results shard-count invariant.
//
//   * A virtual-time barrier scheduler: shards advance concurrently
//     (util::ThreadPool::for_each: a fork-join pool whose caller runs
//     shard 0 and whose thread s always runs shard s) but only in bounded
//     windows [t, t + window).  At each window edge the engine barriers,
//     collects every shard's completions, sorts them by the shard-invariant
//     key (completion time, user), asks the workload::RequestMux for each
//     user's next request, and stages the resulting arrivals into the
//     target shards' inboxes — batched, seq-ordered cross-shard delivery.
//     A follow-up arrival is clamped to the next window edge whether or
//     not it crosses shards, so the virtual timeline is byte-identical at
//     any --shards=N; sharding changes wall-clock time only.
//
//   * Pay-as-you-go trees: the engine's per-tree footprint is a 13-byte
//     SoA index entry (split-chain seed, status, slot).  A tree's
//     DynamicTree + controller materialize into the shard's TreeSlab arena
//     on the first request that touches it (a tree's build is a pure
//     function of (seed, tree_id), so laziness cannot change a byte of
//     output), and under a --resident-trees budget cold trees hibernate
//     into compact wire-codec snapshots at window edges, rematerializing on
//     the next touch (forest/hibernate.hpp) — again byte-identical at any
//     budget, because the snapshot round-trip is lossless and restore
//     paths re-fire no counters.
//
//   * Tree event timelines are independent: two trees never share state,
//     each draws from its own split-chain Rng, and a tree's events execute
//     in the same relative order whatever else its shard interleaves
//     (per-tree schedule order is a subsequence of the shard queue's
//     (when, seq) order).  Hence counters, histograms, and the engine's
//     request totals match exactly across shard counts — tested in
//     tests/test_forest, benched in bench/exp19_forest_scaling.
//
// The steady-state shard loop (event dispatch, serve, completion, barrier
// exchange) allocates nothing per event: queues recycle their slabs, all
// engine buffers (outboxes, inboxes, sort scratch) retain capacity across
// windows, and actions fit InlineFn's inline storage.  exp19's echo phase
// measures this with the operator-new counter (using --eager so one-time
// materialization stays out of the measured loop).  On the cold path,
// rebuilding a tree (materialize, wake) allocates nothing once warm: it
// reuses a recycled slab slot whose tree kept its node storage and whose
// controller kept its package storage, and port numbers are computed from
// the links rather than stored.  Window wall time splits into the serial
// part (min scan, exchange) and the forked part, reported in ForestStats.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/centralized_controller.hpp"
#include "core/params.hpp"
#include "forest/hibernate.hpp"
#include "forest/tree_slab.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/event_queue.hpp"
#include "tree/dynamic_tree.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/request_mux.hpp"

namespace dyncon::forest {

/// What serves a request once it reaches its tree.
enum class Service : std::uint8_t {
  kController,  ///< a real (M,W)-controller per tree (grow/shrink/permit)
  kEcho,        ///< no controller work: grant after the service delay
                ///< (isolates the engine's own loop for alloc accounting)
};

struct ForestConfig {
  /// Shard count == worker count; 1 runs inline with no pool.
  unsigned shards = 1;
  workload::MuxConfig mux;
  /// Virtual-time window width (ticks) between exchange barriers.
  SimTime window = 256;
  Service service = Service::kController;
  /// Initial nodes per tree (grown workload::Shape::kRandomAttach).
  std::uint64_t tree_size = 32;
  /// Permit budget M per tree; 0 = effectively unlimited (requests mostly
  /// grant, the throughput-bench setting).
  std::uint64_t permits_per_tree = 0;
  /// Cap on grows *granted* per tree instance; 0 = auto (2*tree_size + 64,
  /// "the tree may double and change"). This — not the global request
  /// count — is what sizes each controller's U bound, so per-tree
  /// parameter levels no longer grow with unrelated trees or users
  /// (tree_params() is the single source of truth).  A grow arriving at a
  /// capped tree completes as kMoot (forest.ops.grow_capped).
  std::uint64_t grow_cap = 0;
  /// Per-shard budget of resident (materialized) trees; 0 = unlimited.
  /// Enforced at window edges: the least-recently-touched trees beyond the
  /// budget hibernate into compact snapshots and rematerialize on their
  /// next touch.  Output is byte-identical at any budget.
  std::uint64_t resident_trees = 0;
  /// Materialize every tree at construction (the pre-lazy behavior).  Used
  /// by benches/tests to price laziness; semantics are identical.
  bool eager = false;
  /// Base service latency added to every request (plus 0..3 per-tree
  /// jitter ticks).
  SimTime service_delay = 1;
  /// Per-shard span-ring capacity (used only when spans are enabled — a
  /// SpanSink installed on the constructing thread; see the ctor).
  std::size_t span_capacity = std::size_t{1} << 15;
};

/// The (M, W, U) parameter set the engine instantiates every controller
/// with: a pure function of the per-tree knobs (permits_per_tree,
/// tree_size, grow_cap) — never of the user population, the trees count, or
/// the global request budget.  Exposed so tests can pin that property.
[[nodiscard]] core::Params tree_params(const ForestConfig& cfg);

/// grow_cap with the 0 = auto default resolved.
[[nodiscard]] std::uint64_t resolved_grow_cap(const ForestConfig& cfg);

struct ForestStats {
  // Shard-count invariant (compared across --shards values).
  std::uint64_t requests = 0;  ///< completions delivered back to users
  std::uint64_t granted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t other = 0;     ///< moot / exhausted / shrink-noop outcomes
  std::uint64_t events = 0;    ///< events fired across all shard queues
  std::uint64_t windows = 0;   ///< virtual-time windows executed
  std::uint64_t handoffs = 0;  ///< follow-up requests routed at barriers
  // Shard-count DEPENDENT diagnostics (never in the metrics registry).
  std::uint64_t cross_shard = 0;  ///< handoffs whose tree changed shards
  std::uint64_t barriers = 0;
  // Materialization / hibernation diagnostics (populated by run()).  These
  // follow the --eager / --resident-trees knobs (and eviction grouping
  // follows the shard count), so they stay out of the registry and out of
  // the invariant compare; the knobs they track must not change a byte of
  // registry output — that is what tests pin.
  std::uint64_t tree_builds = 0;     ///< virgin -> live materializations
  std::uint64_t hibernations = 0;    ///< live -> frozen transitions
  std::uint64_t wakes = 0;           ///< frozen -> live rematerializations
  std::uint64_t hibernate_bits = 0;  ///< total snapshot bits encoded
  // Where the wall-clock time of the windows went (never in the registry;
  // differs run to run).  serial / (serial + parallel) is the engine's
  // serial fraction; 1 - shard_busy / (shards * parallel) is the share of
  // the forked time shards spent idle, waiting on the slowest one.
  std::uint64_t serial_ns = 0;      ///< step_window outside the shard fork
  std::uint64_t parallel_ns = 0;    ///< fork to join, summed over windows
  std::uint64_t shard_busy_ns = 0;  ///< shards' window work, summed (run())
};

/// Memory accounting snapshot (perf.mem.* feedstock).  Byte figures are
/// capacity-based estimates from the owning containers, not allocator
/// truth — deterministic for a given run, comparable across knobs.
struct ForestMemStats {
  std::uint64_t trees = 0;
  std::uint64_t virgin = 0;      ///< never touched (or destroyed) — index only
  std::uint64_t resident = 0;    ///< live in a shard's TreeSlab
  std::uint64_t hibernated = 0;  ///< frozen snapshots
  std::uint64_t materialized = 0;  ///< resident + hibernated
  std::uint64_t arena_bytes = 0;   ///< TreeSlab slots incl. retained capacity
  std::uint64_t image_bytes = 0;   ///< frozen snapshot buffers
  std::uint64_t index_bytes = 0;   ///< the per-tree SoA index
  [[nodiscard]] std::uint64_t accounting_bytes() const {
    return arena_bytes + image_bytes + index_bytes;
  }
};

class ForestEngine {
 public:
  ForestEngine(const ForestConfig& cfg, std::uint64_t seed);
  ~ForestEngine();

  ForestEngine(const ForestEngine&) = delete;
  ForestEngine& operator=(const ForestEngine&) = delete;

  /// Advance one virtual-time window (parallel across shards) and run the
  /// barrier exchange.  Returns false once the forest is drained — every
  /// user served its full request budget.
  bool step_window();

  /// step_window to completion, then merge the per-shard registries (in
  /// shard order) into the registry installed on the calling thread.
  ForestStats run();

  /// Attach a flight recorder sampled at window edges (after each barrier
  /// exchange): per-shard registries accumulate in shard order, so rows are
  /// byte-identical at any shard count.  Must outlive run(); nullptr
  /// detaches.
  void set_flight_recorder(obs::FlightRecorder* flight) { flight_ = flight; }

  [[nodiscard]] const ForestStats& stats() const { return stats_; }
  [[nodiscard]] ForestMemStats mem_stats() const;
  [[nodiscard]] unsigned shards() const {
    return static_cast<unsigned>(shards_.size());
  }
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t tree) const {
    return tree % static_cast<std::uint32_t>(shards_.size());
  }

  /// First draw of a COPY of each shard's Rng (tests: the per-shard
  /// streams must be pairwise independent and seed-stable).
  [[nodiscard]] std::vector<std::uint64_t> shard_rng_fingerprints() const;

 private:
  struct Completion {
    SimTime done;
    std::uint64_t user;
    std::uint32_t tree;
  };

  struct Shard {
    sim::EventQueue queue;
    obs::Registry registry;
    std::unique_ptr<obs::SpanSink> spans;  ///< null unless spans enabled
    Rng rng;  ///< shard-local auxiliary stream (diagnostics sampling);
              ///< semantic draws use per-tree/per-user chains so results
              ///< stay shard-count invariant
    std::vector<Completion> outbox;            // filled during a window
    std::vector<workload::MuxRequest> inbox;   // staged at barriers
    // Resident-tree arena + frozen snapshot store, both thread-confined to
    // whichever worker runs this shard's window (distinct SoA index
    // elements for distinct shards' trees, so no cross-thread writes).
    TreeSlab slab;
    std::vector<sim::Encoded> frozen;        // snapshot slots (buffers kept)
    std::vector<std::uint32_t> frozen_free;  // recycled snapshot slots
    TreeImage image_scratch;                 // reused capture/decode scratch
    std::vector<std::pair<SimTime, std::uint32_t>> evict_scratch;
    // Worker-local diagnostics, folded into ForestStats by run().
    std::uint64_t tree_builds = 0;
    std::uint64_t hibernations = 0;
    std::uint64_t wakes = 0;
    std::uint64_t hibernate_bits = 0;
    std::uint64_t busy_ns = 0;
  };

  enum class TreeStatus : std::uint8_t { kVirgin, kLive, kFrozen };

  void stage_inbox(Shard& sh);
  void run_window_on_shard(std::uint64_t s);
  void exchange();
  void serve(std::uint64_t user, std::uint32_t tree,
             workload::ForestOp op, obs::TraceId trace);
  void complete(std::uint64_t user, std::uint32_t tree);
  void merge_shard_spans();
  [[nodiscard]] bool drained() const;

  /// Ensure `tree` is live in its shard's slab and stamp its LRU touch
  /// time; materializes virgin trees and wakes hibernated ones.
  LiveTree& touch(std::uint32_t tree, Shard& sh);
  /// Give a slot's tree a fresh controller, reusing the slot's kept one.
  void ensure_controller(LiveTree& lt) const;
  void materialize(std::uint32_t tree, Shard& sh);
  void wake(std::uint32_t tree, Shard& sh);
  void hibernate(std::uint32_t tree, Shard& sh);
  void destroy_tree(std::uint32_t tree, Shard& sh);
  void enforce_residency(Shard& sh);

  ForestConfig cfg_;
  workload::RequestMux mux_;
  core::Params params_;        ///< per-tree controller parameters
  std::uint64_t grow_cap_;     ///< resolved per-tree grow cap

  std::vector<std::unique_ptr<Shard>> shards_;
  // Per-tree SoA index — the only always-resident per-tree state (13
  // bytes/tree).  Entries for a tree are written only by its own shard's
  // worker (distinct vector elements; never a vector<bool>).
  std::vector<std::uint64_t> tree_seed_;    ///< split-chain ctor seed
  std::vector<std::uint8_t> tree_status_;   ///< TreeStatus
  std::vector<std::uint32_t> tree_slot_;    ///< slab slot / frozen slot
  std::unique_ptr<util::ThreadPool> pool_;  // null when shards == 1
  std::vector<Completion> exchange_scratch_;
  SimTime clock_ = 0;  ///< current window edge (virtual time)
  SimTime window_end_ = 0;
  ForestStats stats_;
  obs::FlightRecorder* flight_ = nullptr;
  bool spans_enabled_ = false;
  bool ran_ = false;
};

}  // namespace dyncon::forest
