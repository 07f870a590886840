#include "forest/forest.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "sim/wire.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dyncon::forest {

namespace {

// Seed salt: the mux consumes Rng(seed) itself, so the tree split chain
// hangs off a distinct splitmix-scrambled parent.  The chain is a pure
// function of (seed, index) — never of the shard count.
constexpr std::uint64_t kTreeSalt = 0x7472656573616c74ULL;  // "treesalt"

// Base service latency of every request, before its 0..3 ticks of
// per-tree jitter.
constexpr SimTime kServiceDelay = 1;

bool ready_order(const workload::MuxRequest& a,
                 const workload::MuxRequest& b) {
  return a.ready != b.ready ? a.ready < b.ready : a.user < b.user;
}

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

}  // namespace

std::uint64_t resolved_grow_cap(const ForestConfig& cfg) {
  // Auto: the tree may double its initial size plus a constant before
  // grows saturate — enough headroom for every workload mix the benches
  // drive, small enough that U (and hence the parameter levels) stay a
  // per-tree constant.
  return cfg.grow_cap != 0 ? cfg.grow_cap : 2 * cfg.tree_size + 64;
}

core::Params tree_params(const ForestConfig& cfg) {
  DYNCON_REQUIRE(cfg.tree_size >= 1, "trees need at least the root");
  const std::uint64_t budget = cfg.permits_per_tree != 0
                                   ? cfg.permits_per_tree
                                   : std::uint64_t{1} << 30;
  // U upper-bounds nodes-ever per tree INSTANCE: the initial build plus at
  // most grow_cap granted grows (the engine refuses further grows as
  // kMoot).  Independent of users, trees, and the global request count.
  const std::uint64_t u_bound = cfg.tree_size + resolved_grow_cap(cfg) + 2;
  return core::Params(budget, u_bound, u_bound);
}

ForestEngine::ForestEngine(const ForestConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      mux_(cfg.mux, seed),
      params_(tree_params(cfg)),
      grow_cap_(resolved_grow_cap(cfg)) {
  DYNCON_REQUIRE(cfg_.shards >= 1, "forest needs at least one shard");
  DYNCON_REQUIRE(cfg_.window >= 1, "window width must be >= 1 tick");
  DYNCON_REQUIRE(cfg_.tree_size >= 1, "trees need at least the root");

  // Spans are opt-in by the same install discipline as metrics: a SpanSink
  // on the constructing thread enables per-shard recording (and the merge
  // in run()); none keeps every span site at its single disabled branch.
  spans_enabled_ = obs::spans() != nullptr;

  shards_.reserve(cfg_.shards);
  for (unsigned s = 0; s < cfg_.shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->queue.reserve(64);
    sh->outbox.reserve(256);
    sh->inbox.reserve(256);
    if (spans_enabled_) {
      sh->spans = std::make_unique<obs::SpanSink>(cfg_.span_capacity);
    }
    shards_.push_back(std::move(sh));
  }
  if (cfg_.shards > 1) {
    pool_ = std::make_unique<util::ThreadPool>(cfg_.shards);
  }

  // Per-tree SoA index: one split-chain walk records each tree's ctor seed
  // (8 bytes), so a tree's stream is Rng(tree_seed_[t]) whether it
  // materializes now (--eager), at first touch, or after any number of
  // hibernate cycles — byte-identity at any --shards / --resident-trees
  // follows by construction.  Startup is O(trees) index writes, not
  // O(trees) heap objects.
  const auto n = static_cast<std::size_t>(cfg_.mux.trees);
  Rng tree_parent(seed ^ kTreeSalt);
  tree_seed_.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    tree_seed_.push_back(tree_parent.split_seed());
  }
  tree_status_.assign(n, static_cast<std::uint8_t>(TreeStatus::kVirgin));
  tree_slot_.assign(n, 0);

  if (cfg_.eager) {
    for (std::size_t t = 0; t < n; ++t) {
      const auto tree = static_cast<std::uint32_t>(t);
      materialize(tree, *shards_[shard_of(tree)]);
    }
  }

  // Seed the first window: every user's opening request goes straight to
  // its target shard's inbox; stage_inboxes schedules them.
  for (const workload::MuxRequest& req : mux_.initial_requests()) {
    shards_[shard_of(req.tree)]->inbox.push_back(req);
  }
}

ForestEngine::~ForestEngine() = default;

void ForestEngine::stage_inbox(Shard& sh) {
  if (sh.inbox.empty()) return;
  // (ready, user) staging order makes each event's queue seq — and hence
  // the FIFO tie-break — a pure function of the request set, not of the
  // order completions drained from sibling shards.
  std::sort(sh.inbox.begin(), sh.inbox.end(), ready_order);
  for (const workload::MuxRequest& req : sh.inbox) {
    const std::uint64_t user = req.user;
    const std::uint32_t tree = req.tree;
    const workload::ForestOp op = req.op;
    const obs::TraceId trace = req.trace;
    sh.queue.schedule_at(req.ready, [this, user, tree, op, trace] {
      serve(user, tree, op, trace);
    });
  }
  sh.inbox.clear();  // capacity retained: no steady-state allocation
}

bool ForestEngine::step_window() {
  const Clock::time_point t_begin = Clock::now();
  // Earliest pending work across the forest decides the next window.  The
  // minimum is over the union of all shard queues AND their unstaged
  // inboxes, so the window sequence is identical at any shard count
  // (skipping idle windows entirely).  Inboxes are merely scanned here;
  // the sort + per-event scheduling runs inside each shard's own window,
  // off the serial path.
  bool any = false;
  SimTime t_min = 0;
  auto consider = [&](SimTime t) {
    if (!any || t < t_min) t_min = t;
    any = true;
  };
  for (const auto& shp : shards_) {
    if (!shp->queue.empty()) consider(shp->queue.next_time());
    for (const workload::MuxRequest& req : shp->inbox) consider(req.ready);
  }
  if (!any) return false;  // drained

  const SimTime w = cfg_.window;
  const SimTime w_start = std::max(clock_, (t_min / w) * w);
  window_end_ = w_start + w;
  clock_ = window_end_;
  ++stats_.windows;

  const Clock::time_point t_fork = Clock::now();
  if (pool_ != nullptr) {
    ++stats_.barriers;
    pool_->for_each(shards_.size(),
                    [this](std::uint64_t s) { run_window_on_shard(s); });
  } else {
    run_window_on_shard(0);
  }
  const Clock::time_point t_join = Clock::now();
  exchange();
  // Flight-recorder sampling rides the window edge: every event before
  // window_end_ has fired on every shard regardless of the shard count, so
  // the accumulated counter totals — and hence the rows — are invariant.
  if (flight_ != nullptr && flight_->due(clock_)) {
    flight_->begin_row(clock_);
    for (const auto& shp : shards_) flight_->accumulate(shp->registry);
    flight_->commit_row();
  }
  stats_.parallel_ns += elapsed_ns(t_fork, t_join);
  stats_.serial_ns +=
      elapsed_ns(t_begin, t_fork) + elapsed_ns(t_join, Clock::now());
  return true;
}

void ForestEngine::run_window_on_shard(std::uint64_t s) {
  Shard& sh = *shards_[s];
  const Clock::time_point start = Clock::now();
  // Thread-confined metrics: whatever worker runs this window writes into
  // THIS shard's registry; handles re-resolve on the registry switch.
  obs::ScopedMetrics scope(sh.registry);
  // The inbox was filled by the main thread before the dispatch barrier
  // and is owned by this worker until the next one — no synchronization
  // beyond the barriers themselves.  Residency enforcement runs at the
  // window's trailing edge, off the per-event path: the coldest trees
  // beyond the budget hibernate before the barrier.
  // Spans follow the registry's thread-confinement: this window's worker
  // emits into THIS shard's sink; run() merges in shard order.
  std::optional<obs::ScopedSpans> span_scope;
  if (sh.spans != nullptr) span_scope.emplace(*sh.spans);
  stage_inbox(sh);
  sh.queue.run_until(window_end_);
  enforce_residency(sh);
  sh.busy_ns += elapsed_ns(start, Clock::now());
}

void ForestEngine::exchange() {
  exchange_scratch_.clear();
  for (auto& shp : shards_) {
    exchange_scratch_.insert(exchange_scratch_.end(), shp->outbox.begin(),
                             shp->outbox.end());
    shp->outbox.clear();
  }
  if (exchange_scratch_.empty()) return;
  // Global (done, user) order: the one sequence every shard count agrees
  // on.  Each user has one outstanding request, so the key is unique.
  std::sort(exchange_scratch_.begin(), exchange_scratch_.end(),
            [](const Completion& a, const Completion& b) {
              return a.done != b.done ? a.done < b.done : a.user < b.user;
            });
  stats_.requests += exchange_scratch_.size();
  for (const Completion& c : exchange_scratch_) {
    workload::MuxRequest req;
    if (!mux_.next_request(c.user, c.done, window_end_, req)) continue;
    const std::uint32_t target = shard_of(req.tree);
    shards_[target]->inbox.push_back(req);
    ++stats_.handoffs;
    if (target != shard_of(c.tree)) ++stats_.cross_shard;
  }
}

LiveTree& ForestEngine::touch(std::uint32_t tree, Shard& sh) {
  const auto t = static_cast<std::size_t>(tree);
  switch (static_cast<TreeStatus>(tree_status_[t])) {
    case TreeStatus::kLive:
      break;
    case TreeStatus::kVirgin:
      materialize(tree, sh);
      break;
    case TreeStatus::kFrozen:
      wake(tree, sh);
      break;
  }
  LiveTree& lt = sh.slab.at(tree_slot_[t]);
  lt.last_touch = sh.queue.now();
  return lt;
}

void ForestEngine::ensure_controller(LiveTree& lt) const {
  // A recycled slot keeps its earlier tenant's controller, reset by
  // TreeSlab::release: same engine, so the same Params and Options.
  if (lt.ctrl.has_value()) return;
  core::CentralizedController::Options opts;
  opts.track_domains = false;
  lt.ctrl.emplace(lt.tree, params_, opts);
}

void ForestEngine::materialize(std::uint32_t tree, Shard& sh) {
  const std::uint32_t slot = sh.slab.acquire();
  LiveTree& lt = sh.slab.at(slot);
  lt.tree_id = tree;
  lt.rng = Rng(tree_seed_[tree]);
  // The build draws come first off the tree's chain; serve-time draws
  // continue the same stream, exactly as the eager engine consumed it.
  build_initial_topology(lt.tree, lt.rng, cfg_.tree_size);
  if (cfg_.service == Service::kController) ensure_controller(lt);
  tree_slot_[tree] = slot;
  tree_status_[tree] = static_cast<std::uint8_t>(TreeStatus::kLive);
  ++sh.tree_builds;
}

void ForestEngine::wake(std::uint32_t tree, Shard& sh) {
  const std::uint32_t fslot = tree_slot_[tree];
  decode_tree_image(sh.image_scratch, sh.frozen[fslot]);
  const TreeImage& img = sh.image_scratch;

  const std::uint32_t slot = sh.slab.acquire();
  LiveTree& lt = sh.slab.at(slot);
  lt.tree_id = tree;
  {
    // The build's draws replay from the recorded seed on a scratch
    // generator; the live stream then resumes from the snapshot state.
    Rng build_rng(tree_seed_[tree]);
    build_initial_topology(lt.tree, build_rng, cfg_.tree_size);
  }
  replay_grown_nodes(lt.tree, img);
  lt.rng.set_state(img.rng_state);
  lt.grown.clear();
  for (const auto& [id, parent] : img.grown) lt.grown.push_back(id);
  lt.grows = img.grows;
  if (img.has_ctrl) {
    DYNCON_INVARIANT(cfg_.service == Service::kController,
                     "controller image for an echo-mode tree");
    ensure_controller(lt);
    lt.ctrl->restore_image(img.ctrl);
  }

  // Recycle the frozen slot; its byte buffer stays behind on the free list
  // for the next hibernation (allocation-free steady state).
  sh.frozen_free.push_back(fslot);
  tree_slot_[tree] = slot;
  tree_status_[tree] = static_cast<std::uint8_t>(TreeStatus::kLive);
  ++sh.wakes;
}

void ForestEngine::hibernate(std::uint32_t tree, Shard& sh) {
  const std::uint32_t slot = tree_slot_[tree];
  LiveTree& lt = sh.slab.at(slot);
  capture_tree_image(sh.image_scratch, lt.tree,
                     lt.ctrl.has_value() ? &*lt.ctrl : nullptr, lt.rng,
                     lt.grown, lt.grows);
  std::uint32_t fslot;
  if (!sh.frozen_free.empty()) {
    fslot = sh.frozen_free.back();
    sh.frozen_free.pop_back();
  } else {
    fslot = static_cast<std::uint32_t>(sh.frozen.size());
    sh.frozen.emplace_back();
  }
  sh.frozen[fslot] =
      encode_tree_image(sh.image_scratch, std::move(sh.frozen[fslot]));
  sh.hibernate_bits += sh.frozen[fslot].bits;
  sh.slab.release(slot);
  tree_slot_[tree] = fslot;
  tree_status_[tree] = static_cast<std::uint8_t>(TreeStatus::kFrozen);
  ++sh.hibernations;
}

void ForestEngine::destroy_tree(std::uint32_t tree, Shard& sh) {
  const auto t = static_cast<std::size_t>(tree);
  switch (static_cast<TreeStatus>(tree_status_[t])) {
    case TreeStatus::kLive:
      sh.slab.release(tree_slot_[t]);
      break;
    case TreeStatus::kFrozen:
      sh.frozen_free.push_back(tree_slot_[t]);
      break;
    case TreeStatus::kVirgin:
      break;
  }
  tree_status_[t] = static_cast<std::uint8_t>(TreeStatus::kVirgin);
}

void ForestEngine::enforce_residency(Shard& sh) {
  const std::uint64_t budget = cfg_.resident_trees;
  if (budget == 0 || sh.slab.occupied() <= budget) return;
  // Deterministic LRU: (last_touch, tree_id) over this shard's residents.
  // The POLICY may group differently at different shard counts — harmless,
  // because the hibernate round-trip is lossless; only the hibernation
  // diagnostics move.
  sh.evict_scratch.clear();
  sh.slab.for_each_occupied([&](const LiveTree& lt) {
    sh.evict_scratch.emplace_back(lt.last_touch, lt.tree_id);
  });
  // Only the `excess` coldest need an order: select them, then sort that
  // prefix.  Keys are unique (tree ids), so the prefix — and the order the
  // trees hibernate in, which decides frozen-slot and slab-slot reuse — is
  // exactly a full sort's.
  const std::size_t excess = sh.slab.occupied() - budget;
  const auto cut = sh.evict_scratch.begin() +
                   static_cast<std::ptrdiff_t>(excess);
  std::nth_element(sh.evict_scratch.begin(), cut, sh.evict_scratch.end());
  std::sort(sh.evict_scratch.begin(), cut);
  for (std::size_t i = 0; i < excess; ++i) {
    hibernate(sh.evict_scratch[i].second, sh);
  }
}

void ForestEngine::serve(std::uint64_t user, std::uint32_t tree,
                         workload::ForestOp op, obs::TraceId trace) {
  Shard& sh = *shards_[shard_of(tree)];

  // Causal context for everything this request touches: the controller's
  // op span parents to the request's root span.
  // The save/restore is two thread-local copies; the stores are behind the
  // spans-enabled check.
  obs::ScopedSpanContext span_scope;
  if (sh.spans != nullptr) {
    span_scope.engage(obs::SpanContext{trace, obs::kRootSpanId});
    obs::set_span_now(sh.queue.now());
  }

  static thread_local obs::CounterHandle c_total("forest.requests.total");
  static thread_local obs::CounterHandle c_granted("forest.requests.granted");
  static thread_local obs::CounterHandle c_rejected(
      "forest.requests.rejected");
  static thread_local obs::CounterHandle c_other("forest.requests.other");
  static thread_local obs::CounterHandle c_permit("forest.ops.permit");
  static thread_local obs::CounterHandle c_grow("forest.ops.grow");
  static thread_local obs::CounterHandle c_capped("forest.ops.grow_capped");
  static thread_local obs::CounterHandle c_shrink("forest.ops.shrink");
  static thread_local obs::CounterHandle c_noop("forest.ops.shrink_noop");
  static thread_local obs::CounterHandle c_destroy("forest.ops.destroy");
  static thread_local obs::HistogramHandle h_cost("forest.serve.cost");
  c_total.add();

  LiveTree& lt = touch(tree, sh);

  core::Outcome outcome = core::Outcome::kGranted;
  bool destroyed = false;
  if (cfg_.service == Service::kEcho) {
    // Engine-only mode: grant unconditionally, touch no controller.  What
    // remains is exactly the sharded runtime's own per-event work (destroy
    // is a tenancy op on controller state, so echo ignores it too).
    c_permit.add();
  } else if (op == workload::ForestOp::kDestroy) {
    // Tenant teardown: free the tree's state entirely; the next request
    // that touches this tree id lazily builds a fresh instance from the
    // same seed.  Zero controller cost, granted outcome.
    c_destroy.add();
    h_cost.observe(0);
    destroyed = true;
  } else {
    const std::uint64_t cost_before = lt.ctrl->cost();
    switch (op) {
      case workload::ForestOp::kPermit: {
        c_permit.add();
        const NodeId site = static_cast<NodeId>(
            lt.rng.index(static_cast<std::size_t>(cfg_.tree_size)));
        outcome = lt.ctrl->request_event(site).outcome;
        break;
      }
      case workload::ForestOp::kGrow: {
        c_grow.add();
        if (lt.grows >= grow_cap_) {
          // This instance's grow budget — the U bound's headroom — is
          // spent; refuse without touching the controller.
          c_capped.add();
          outcome = core::Outcome::kMoot;
          break;
        }
        const NodeId parent = static_cast<NodeId>(
            lt.rng.index(static_cast<std::size_t>(cfg_.tree_size)));
        const core::Result res = lt.ctrl->request_add_leaf(parent);
        outcome = res.outcome;
        if (res.granted()) {
          lt.grown.push_back(res.new_node);
          ++lt.grows;
        }
        break;
      }
      case workload::ForestOp::kShrink: {
        c_shrink.add();
        if (lt.grown.empty()) {
          // Nothing this user's tree can give back; a no-op completion.
          c_noop.add();
          outcome = core::Outcome::kMoot;
          break;
        }
        const core::Result res = lt.ctrl->request_remove(lt.grown.back());
        outcome = res.outcome;
        if (res.granted()) lt.grown.pop_back();
        break;
      }
      case workload::ForestOp::kDestroy:
        DYNCON_INVARIANT(false, "destroy handled above");
        break;
    }
    h_cost.observe(lt.ctrl->cost() - cost_before);
  }

  switch (outcome) {
    case core::Outcome::kGranted:
      c_granted.add();
      break;
    case core::Outcome::kRejected:
      c_rejected.add();
      break;
    default:
      c_other.add();
      break;
  }

  // Service latency: base + per-tree jitter (same stream as the site
  // draws, so it too is shard-count invariant), then a completion event
  // that hands the response back at the next barrier.  The jitter draw
  // happens before a destroy releases the tree's state.
  const SimTime delay = kServiceDelay + (lt.rng.next() & 3);
  if (destroyed) destroy_tree(tree, sh);
  sh.queue.schedule_after(delay, [this, user, tree] {
    complete(user, tree);
  });
}

void ForestEngine::complete(std::uint64_t user, std::uint32_t tree) {
  Shard& sh = *shards_[shard_of(tree)];
  sh.outbox.push_back(Completion{sh.queue.now(), user, tree});
}

bool ForestEngine::drained() const {
  for (const auto& shp : shards_) {
    if (!shp->queue.empty() || !shp->inbox.empty()) return false;
  }
  return true;
}

ForestStats ForestEngine::run() {
  DYNCON_REQUIRE(!ran_, "ForestEngine::run is one-shot");
  ran_ = true;
  while (step_window()) {
  }
  DYNCON_INVARIANT(drained(), "run ended with pending work");
  DYNCON_INVARIANT(stats_.requests == mux_.total_requests(),
                   "every issued request must complete exactly once");

  for (const auto& shp : shards_) {
    stats_.events += shp->queue.events_fired();
    stats_.granted += shp->registry.counter("forest.requests.granted");
    stats_.rejected += shp->registry.counter("forest.requests.rejected");
    stats_.other += shp->registry.counter("forest.requests.other");
    stats_.tree_builds += shp->tree_builds;
    stats_.hibernations += shp->hibernations;
    stats_.wakes += shp->wakes;
    stats_.hibernate_bits += shp->hibernate_bits;
    stats_.shard_busy_ns += shp->busy_ns;
  }

  // Deterministic reduction: shard registries fold into the caller's
  // registry in shard order.  Counter/histogram totals are shard-count
  // invariant (per-tree streams; merge is commutative over integers).
  if (obs::Registry* r = obs::metrics()) {
    for (const auto& shp : shards_) r->merge(shp->registry);
  }
  merge_shard_spans();
  return stats_;
}

ForestMemStats ForestEngine::mem_stats() const {
  ForestMemStats m;
  m.trees = tree_status_.size();
  for (std::uint8_t st : tree_status_) {
    switch (static_cast<TreeStatus>(st)) {
      case TreeStatus::kVirgin:
        ++m.virgin;
        break;
      case TreeStatus::kLive:
        ++m.resident;
        break;
      case TreeStatus::kFrozen:
        ++m.hibernated;
        break;
    }
  }
  m.materialized = m.resident + m.hibernated;
  for (const auto& shp : shards_) {
    m.arena_bytes += shp->slab.approx_bytes();
    for (const sim::Encoded& e : shp->frozen) {
      m.image_bytes += e.bytes.capacity() + sizeof(sim::Encoded);
    }
  }
  m.index_bytes = tree_seed_.capacity() * sizeof(std::uint64_t) +
                  tree_status_.capacity() +
                  tree_slot_.capacity() * sizeof(std::uint32_t);
  return m;
}

void ForestEngine::merge_shard_spans() {
  obs::SpanSink* sink = obs::spans();
  if (sink == nullptr || !spans_enabled_) return;
  // Root spans were emitted straight into the caller's sink (the exchange
  // runs on this thread, in global (done, user) order).  Shard sinks hold
  // the op spans; (trace, id) is globally unique — a trace's ops
  // run on exactly one shard, and ids are per-trace — so sorting by it
  // gives one total order every shard count agrees on.
  std::vector<obs::Span> all;
  std::uint64_t lost = 0;
  for (const auto& shp : shards_) {
    if (shp->spans == nullptr) continue;
    all.insert(all.end(), shp->spans->entries().begin(),
               shp->spans->entries().end());
    lost += shp->spans->overwritten();
  }
  std::sort(all.begin(), all.end(),
            [](const obs::Span& a, const obs::Span& b) {
              if (a.trace != b.trace) return a.trace < b.trace;
              return a.id < b.id;
            });
  for (const obs::Span& s : all) sink->emit(s);
  sink->add_overwritten(lost);
}

}  // namespace dyncon::forest
