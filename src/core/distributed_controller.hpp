#pragma once

// The distributed (M,W)-controller of paper §4 (fixed, known U).
//
// Each request spawns a mobile agent at its arrival node.  The agent:
//
//   1. locks its node; a reject package there rejects the request, a static
//      package grants it on the spot;
//   2. otherwise climbs toward the root, locking every node (waiting FIFO
//      at nodes locked by other agents), until it finds a reject node, a
//      filler node, or the root;
//   3. at a reject node it walks home placing reject packages and
//      unlocking; at the root it either creates the level-j(u) package from
//      Storage or triggers the reject flood;
//   4. with a package in its Bag it walks down performing Proc (split at
//      each u_k), grants at the origin, walks back up to the topmost node
//      it reached, and finally walks down unlocking every node;
//   5. the requested event is applied atomically at the moment the grant
//      is delivered at the origin — "the requested event takes place when
//      the request is granted" (item 2) — while the agent still holds
//      every lock from the origin to the topmost node it reached.  That
//      window is the serialization Lemmas 4.3-4.5 reason about: no other
//      agent can observe the subject between its own moot check and its
//      grant.
//
// Every hop is one network message; the reject flood and the
// graceful-deletion data handoff are charged per the paper's accounting.
// The API is asynchronous (callbacks fire from the event loop);
// `DistributedSyncFacade` below adapts it to IController for benches that
// issue requests one at a time.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include <set>
#include <unordered_set>
#include <vector>

#include "agent/durable.hpp"
#include "agent/runtime.hpp"
#include "agent/taxi.hpp"
#include "agent/whiteboard.hpp"
#include "core/controller_iface.hpp"
#include "core/domain.hpp"
#include "core/package.hpp"
#include "core/params.hpp"
#include "obs/span.hpp"
#include "sim/crash.hpp"
#include "sim/network.hpp"
#include "tree/dynamic_tree.hpp"

namespace dyncon::sim {
class Watchdog;
}  // namespace dyncon::sim

namespace dyncon::core {

class DistributedController final : public BaseController,
                                    public sim::CrashListener {
 public:
  enum class Mode : std::uint8_t { kRejectWave, kExhaustSignal };

  struct Options {
    Mode mode = Mode::kRejectWave;
    bool track_domains = true;
    /// Counting-only instances (App. A's parallel (U/2, U/4)-controller)
    /// grant permits but never apply topological changes themselves.
    bool apply_events = true;
    Interval serials;
    /// Local observation hook (§5.3): called as (node, permits) whenever a
    /// carried package of `permits` permits arrives at `node` on its way
    /// down.  In the distributed protocol this is literally each node
    /// watching its own traffic — zero extra messages.
    std::function<void(NodeId, std::uint64_t)> on_pass_down;
    /// Liveness monitor (sim/watchdog.hpp): when set, every submission
    /// arms a token that the completion callback disarms, so a request
    /// stranded by the network becomes a loud WatchdogError instead of a
    /// silent missing verdict.  Not owned; must outlive the controller.
    sim::Watchdog* watchdog = nullptr;
    /// The paper's lemmas assume reliable links, so constructing a
    /// controller on a lossy network without the reliable channel is
    /// almost always a harness bug and the constructor refuses.  Tests
    /// that *want* to watch the protocol strand agents (the watchdog
    /// verdict tests) opt in here.
    bool allow_unreliable_transport = false;
    /// Crash adversary (sim/crash.hpp): when set, the controller registers
    /// as a CrashListener and applies the semantic damage of each node
    /// transition (PROTOCOL.md §9).  Not owned; must outlive the
    /// controller.
    sim::CrashDriver* crashes = nullptr;
    /// Whether whiteboards survive crashes.  kVolatile: a crash wipes the
    /// node's board — parked agents die, the lock holder is doomed and its
    /// locks are reclaimed by the orphan-lock release wave.  kDurable:
    /// every board mutation is journaled via the wire codec and the board
    /// is restored on restart; the outage is bridged by the reliable
    /// channel and no agent dies.
    agent::Durability durability = agent::Durability::kVolatile;
    /// kDurable only: charge each journal write's measured bits as metered
    /// application traffic (the §2.2 accounting), so persistence cost
    /// shows up in NetStats.  Off by default: charging changes the per-kind
    /// byte counts of runs that existed before this layer.
    bool meter_persistence = false;
    /// Vectorized permit grants (PR 9): when a lock release hands the node
    /// to a waiter and the event queue has nothing else pending at the
    /// current tick, run the waiter's continuation inline at the tail of
    /// the current event instead of scheduling it at +0.  A grant wave
    /// draining k queued requests then dispatches as one event (the k-1
    /// inlined continuations are credited via
    /// EventQueue::count_extra_fired, and their permit counters flush as
    /// one batched add), so every counter — including perf.events — is
    /// bit-identical to an unbatched run: the inlined waiter would have
    /// been the very next event to fire anyway.
    bool batch_grants = true;
  };

  DistributedController(sim::Network& net, tree::DynamicTree& tree,
                        Params params, Options options);
  DistributedController(sim::Network& net, tree::DynamicTree& tree,
                        Params params)
      : DistributedController(net, tree, params, Options{}) {}
  ~DistributedController() override;

  DistributedController(const DistributedController&) = delete;
  DistributedController& operator=(const DistributedController&) = delete;

  // ---- crash/recovery (sim::CrashListener) ----------------------------------

  /// A node went down.  Volatile: wipe its whiteboard, kill the agents
  /// parked there, doom the lock holder.  Durable: nothing is lost — the
  /// journal is authoritative and the board survives in it.
  void on_crash(NodeId v) override;
  /// A node came back.  Durable: decode the journaled snapshot, verify it
  /// against the live mirror, and reinstall it (reincarnating the parked
  /// agents and the down pointer).  Volatile: the node restarts blank.
  void on_restart(NodeId v) override;

  /// The orphan-lock release wave: force-finalize every doomed lock holder
  /// (releasing all its locks, rescuing any carried package, failing its
  /// request).  Returns true if it acted or a node outage is still in
  /// progress — the contract of a watchdog death probe, and the wrappers
  /// install exactly this as one.
  bool crash_recover() override;

  [[nodiscard]] std::size_t doomed_holders() const override {
    return doomed_.size();
  }
  [[nodiscard]] const agent::DurableStore* durable_store() const {
    return durable_.get();
  }

  // ---- request submission (asynchronous) -----------------------------------

  void submit_event(NodeId u, Callback done);
  void submit_add_leaf(NodeId parent, Callback done);
  void submit_add_internal_above(NodeId child, Callback done);
  void submit_remove(NodeId v, Callback done);
  void submit(const RequestSpec& spec, Callback done) override;

  // ---- introspection ---------------------------------------------------------

  [[nodiscard]] const Params& params() const override { return params_; }
  [[nodiscard]] std::uint64_t permits_granted() const override {
    return granted_;
  }
  [[nodiscard]] std::uint64_t rejects_delivered() const { return rejects_; }
  [[nodiscard]] std::uint64_t root_storage() const { return storage_; }
  [[nodiscard]] std::uint64_t unused_permits() const override;
  [[nodiscard]] bool reject_wave_started() const override { return wave_; }
  [[nodiscard]] bool exhausted() const { return exhausted_; }
  [[nodiscard]] std::size_t active_agents() const override {
    return agents_.size();
  }
  [[nodiscard]] const PackageTable& packages() const { return packages_; }
  [[nodiscard]] const DomainTracker* domains() const override {
    return domains_.get();
  }

  /// Messages this instance has put on the network (agent hops + reject
  /// flood + data handoffs): the paper's message complexity.
  [[nodiscard]] std::uint64_t messages_used() const { return messages_; }
  [[nodiscard]] std::uint64_t cost() const override { return messages_; }

  /// Modeled whiteboard memory at node v in bits (Claim 4.8 accounting).
  /// In the designer-port model (§4.4.2) the agent queue at v is kept as a
  /// linked list distributed among v's children, so v itself only pays
  /// O(log N) for the queue head instead of O(deg(v) log N).
  [[nodiscard]] std::uint64_t memory_bits(
      NodeId v, bool designer_port_model = false) const;

  /// One line per active agent (debugging stuck executions in tests).
  [[nodiscard]] std::string debug_agents() const;

 private:
  enum class Phase : std::uint8_t {
    kStart,       ///< evaluating at the origin
    kClimb,       ///< walking up, locking
    kProcDown,    ///< carrying a package down, splitting at each u_k
    kReturnUp,    ///< after the grant: walking back up to the topmost node
    kUnlockDown,  ///< final walk down, unlocking
    kRejectDown,  ///< walking home placing reject packages
    kAbortDown,   ///< exhaust-signal mode: walking home unlocking only
  };

  struct Agent {
    agent::AgentId id = agent::kNoAgent;
    NodeId origin = kNoNode;
    NodeId at = kNoNode;
    std::uint64_t distance = 0;      ///< exact hops to origin (path locked)
    std::uint64_t top_distance = 0;  ///< distance of the topmost node
    Phase phase = Phase::kStart;
    std::uint32_t bag_level = 0;
    PackageId carrying = kNoPackage;
    RequestSpec request;
    Callback done;
    Result result;
    std::uint64_t locks_held = 0;  ///< debug accounting; 0 at termination
    // Op-span state (inert — trace stays kNoTrace — unless a SpanSink is
    // installed when the agent is created): every processing step scopes
    // `span` as the current context so hop spans parent to this op, and
    // finish() closes the op span [span_begin, now].
    obs::SpanContext span;
    std::uint32_t span_parent = obs::kNoSpan;
    SimTime span_begin = 0;
  };

  /// Dense slot map keyed by the sequential AgentId stream.  Lookup — the
  /// single hottest controller operation (one per arrival) — is two array
  /// loads (id -> slot -> Agent) instead of a hash probe.  Finished agents'
  /// slots are recycled through a free list, so the pool stays at
  /// peak-concurrency size while the id index grows 4 bytes per request
  /// ever submitted.  The pool is a deque: references handed out by find()
  /// / create() stay valid across later create() calls (the old
  /// unordered_map gave the same guarantee, and callers rely on it).
  class AgentTable {
   public:
    static constexpr std::uint32_t kNoSlot = 0xffffffffU;

    [[nodiscard]] Agent* find(agent::AgentId id) {
      if (id >= slot_of_.size()) return nullptr;
      const std::uint32_t s = slot_of_[id];
      return s == kNoSlot ? nullptr : &pool_[s];
    }
    [[nodiscard]] const Agent* find(agent::AgentId id) const {
      if (id >= slot_of_.size()) return nullptr;
      const std::uint32_t s = slot_of_[id];
      return s == kNoSlot ? nullptr : &pool_[s];
    }

    Agent& create(agent::AgentId id) {
      if (id >= slot_of_.size()) slot_of_.resize(id + 1, kNoSlot);
      std::uint32_t s;
      if (!free_.empty()) {
        s = free_.back();
        free_.pop_back();
        pool_[s] = Agent{};  // recycled slot: back to default state
      } else {
        s = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
      }
      slot_of_[id] = s;
      ++live_;
      return pool_[s];
    }

    void erase(agent::AgentId id) {
      const std::uint32_t s = slot_of_[id];
      slot_of_[id] = kNoSlot;
      pool_[s].id = agent::kNoAgent;  // liveness marker for for_each
      free_.push_back(s);
      --live_;
    }

    [[nodiscard]] std::size_t size() const { return live_; }

    /// Visit live agents in slot order (deterministic: a pure function of
    /// the operation history, unlike hash-table order).
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (const Agent& a : pool_) {
        if (a.id != agent::kNoAgent) fn(a);
      }
    }

   private:
    std::vector<std::uint32_t> slot_of_;
    std::deque<Agent> pool_;
    std::vector<std::uint32_t> free_;
    std::size_t live_ = 0;
  };

  void on_arrival(agent::AgentId id, NodeId node, NodeId came_from);
  void on_enter(Agent& a, NodeId node, NodeId came_from);
  void evaluate(Agent& a);
  void begin_proc(Agent& a, PackageId p, std::uint32_t level);
  void on_proc_down(Agent& a, NodeId node);
  void deliver_grant(Agent& a);
  void on_return_up(Agent& a, NodeId node);
  void unlock_step(Agent& a, NodeId node);
  void reject_step(Agent& a, NodeId node);
  void abort_step(Agent& a, NodeId node);
  void root_logic(Agent& a);
  void start_reject_flood();
  void flood_fanout(NodeId from);
  void terminate_at_origin(Agent& a);
  void apply_event_at_grant(Agent& a);
  void finish(Agent& a);
  /// Zero-width op span for requests resolved without an agent (moot).
  [[nodiscard]] obs::Span instant_op_span(obs::SpanSink& sink,
                                          Outcome outcome, NodeId node);
  void resume_waiter(const agent::Waiter& w, NodeId at);
  /// Tail-position resume (the vectorized grant path).  Callers guarantee
  /// this is the LAST action of the current event's handler; the waiter is
  /// then run inline when that is provably equivalent to the +0 schedule
  /// it replaces (nothing else pending at the current tick), else
  /// scheduled.
  void resume_waiter_tail(const agent::Waiter& w, NodeId at);
  /// Count one granted permit.  Inside an inline resume chain the registry
  /// add is deferred and flushed as one batched op at the end of the chain
  /// (identical totals, k-1 fewer registry touches).
  void note_grant();
  void flush_grants();
  /// Force-finalize `id` right now: release every lock it holds (resuming
  /// waiters), remove it from any queue it is parked in, rescue a carried
  /// package as a static package where the agent stood, and deliver its
  /// verdict (granted stays granted; anything earlier becomes a
  /// crash-failed rejection).
  void kill_agent(agent::AgentId id);
  /// Assemble the durable snapshot of `v` (board + parked-agent state)
  /// into `out`, reusing its queue's capacity.
  void snapshot_board(NodeId v, agent::BoardSnapshot& out) const;
  [[nodiscard]] bool moot(const RequestSpec& spec) const;
  [[nodiscard]] sim::Message hop_message(const Agent& a) const;
  void hop_up(Agent& a);
  void hop_down(Agent& a, NodeId to);
  [[nodiscard]] Agent& agent(agent::AgentId id);

  sim::Network& net_;
  tree::DynamicTree& tree_;
  Params params_;
  Options options_;

  agent::WhiteboardManager boards_;
  agent::Taxi taxi_;
  agent::AgentIdAllocator ids_;
  AgentTable agents_;

  PackageTable packages_;
  std::unique_ptr<DomainTracker> domains_;

  /// Lock holders whose node crashed under them (volatile mode): they are
  /// killed at their next arrival, or collected by crash_recover().
  /// Ordered so the release wave is deterministic.
  std::set<agent::AgentId> doomed_;
  /// Agents force-finalized by a crash: late deliveries addressed to them
  /// (ARQ retransmissions that bridged the outage) are dropped as stale
  /// instead of tripping the unknown-agent invariant.
  std::unordered_set<agent::AgentId> dead_ids_;
  std::unique_ptr<agent::DurableStore> durable_;

  std::uint64_t storage_;
  Interval storage_serials_;
  std::uint32_t resume_depth_ = 0;  ///< inline resume chain depth
  std::uint64_t pending_grants_ = 0;  ///< grants awaiting the batched flush
  std::uint64_t granted_ = 0;
  std::uint64_t rejects_ = 0;
  std::uint64_t messages_ = 0;
  bool wave_ = false;
  bool exhausted_ = false;
};

/// Adapts the asynchronous controller to the synchronous IController
/// interface by running the event loop to completion after each request.
/// Requests therefore never overlap; this is the facade benches use when
/// comparing against centralized controllers.
class DistributedSyncFacade final : public IController {
 public:
  DistributedSyncFacade(sim::EventQueue& queue, DistributedController& ctrl);

  Result request_event(NodeId u) override;
  Result request_add_leaf(NodeId parent) override;
  Result request_add_internal_above(NodeId child) override;
  Result request_remove(NodeId v) override;
  [[nodiscard]] std::uint64_t cost() const override;
  [[nodiscard]] std::uint64_t permits_granted() const override;

 private:
  Result run(const RequestSpec& spec);

  sim::EventQueue& queue_;
  DistributedController& ctrl_;
};

}  // namespace dyncon::core
