#include "core/distributed_controller.hpp"

#include <algorithm>
#include <utility>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "sim/watchdog.hpp"
#include "util/error.hpp"

namespace dyncon::core {

using agent::AgentId;

DistributedController::DistributedController(sim::Network& net,
                                             tree::DynamicTree& tree,
                                             Params params, Options options)
    : net_(net),
      tree_(tree),
      params_(params),
      options_(std::move(options)),
      taxi_(net, tree),
      storage_(params.M()),
      storage_serials_(options_.serials) {
  DYNCON_REQUIRE(
      storage_serials_.empty() || storage_serials_.size() == params.M(),
      "serial interval must cover exactly M permits");
  DYNCON_REQUIRE(options_.allow_unreliable_transport || !net_.lossy() ||
                     net_.reliable(),
                 "lossy network without a reliable channel: call "
                 "Network::enable_reliability() or opt in with "
                 "Options::allow_unreliable_transport");
  if (options_.track_domains) {
    domains_ = std::make_unique<DomainTracker>(tree_, params_, packages_);
    tree_.add_observer(domains_.get());
  }
  taxi_.set_on_arrival([this](AgentId id, NodeId node, NodeId came_from) {
    on_arrival(id, node, came_from);
  });
  // Assert (in debug builds) the network.hpp contract that the agent layer
  // only sends along tree edges.  kApp traffic (the §2.2 message meter) is
  // point-to-point by design and exempt; everything else must ride a live
  // parent-child edge at send time.
  net_.set_link_check(this, [this](NodeId from, NodeId to, sim::MsgKind k) {
    if (k == sim::MsgKind::kApp) return true;
    if (!tree_.alive(from) || !tree_.alive(to)) return false;
    return tree_.parent(from) == to || tree_.parent(to) == from;
  });
  if (options_.durability == agent::Durability::kDurable) {
    durable_ = std::make_unique<agent::DurableStore>(
        [this](NodeId v, agent::BoardSnapshot& out) {
          snapshot_board(v, out);
        });
    if (options_.meter_persistence) durable_->set_charge_network(&net_);
    boards_.set_observer([this](NodeId v) { durable_->persist(v); });
  }
  if (options_.crashes != nullptr) {
    options_.crashes->add_listener(this);
    // Wrapped instances get no watchdog (the wrapper arms/disarms and
    // installs its own probe over the whole stack); a standalone controller
    // running with both a watchdog and a crash adversary wires the
    // orphan-lock release wave here.
    if (options_.watchdog != nullptr) {
      options_.watchdog->add_death_probe(this,
                                         [this] { return crash_recover(); });
    }
  }
}

DistributedController::~DistributedController() {
  if (options_.crashes != nullptr) {
    options_.crashes->remove_listener(this);
    if (options_.watchdog != nullptr) {
      options_.watchdog->remove_death_probe(this);
    }
  }
  net_.clear_link_check(this);
  if (domains_) tree_.remove_observer(domains_.get());
}

// ---- submission --------------------------------------------------------------

void DistributedController::submit_event(NodeId u, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kEvent, u}, std::move(done));
}

void DistributedController::submit_add_leaf(NodeId parent, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddLeaf, parent}, std::move(done));
}

void DistributedController::submit_add_internal_above(NodeId child,
                                                      Callback done) {
  DYNCON_REQUIRE(child != tree_.root(), "cannot insert above the root");
  submit(RequestSpec{RequestSpec::Type::kAddInternal, child},
         std::move(done));
}

void DistributedController::submit_remove(NodeId v, Callback done) {
  DYNCON_REQUIRE(v != tree_.root(), "the root is never deleted");
  submit(RequestSpec{RequestSpec::Type::kRemove, v}, std::move(done));
}

void DistributedController::submit(const RequestSpec& spec, Callback done) {
  DYNCON_REQUIRE(tree_.alive(spec.subject), "request subject not alive");
  DYNCON_REQUIRE(static_cast<bool>(done), "null completion callback");
  if (options_.watchdog != nullptr) {
    // Static label + stored origin keep arming allocation-free (PR 4).
    const sim::Watchdog::Token token =
        options_.watchdog->arm(spec.subject, request_type_name(spec.type));
    done = [wd = options_.watchdog, token,
            done = std::move(done)](const Result& r) {
      wd->disarm(token);
      done(r);
    };
  }
  // The request enters the system as an event so the creation is ordered
  // with everything else in simulated time.
  net_.queue().schedule_after(0, [this, spec, done = std::move(done)] {
    if (moot(spec)) {
      obs::count("requests.moot");
      done(Result{Outcome::kMoot});
      return;
    }
    const NodeId arrival = spec.type == RequestSpec::Type::kAddInternal
                               ? tree_.parent(spec.subject)
                               : spec.subject;
    const AgentId id = ids_.next();
    Agent& a = agents_.create(id);
    a.id = id;
    a.origin = arrival;
    a.at = arrival;
    a.request = spec;
    a.done = std::move(done);
    on_enter(a, arrival, kNoNode);
  });
}

bool DistributedController::moot(const RequestSpec& spec) const {
  return !tree_.alive(spec.subject);
}

// ---- movement helpers ----------------------------------------------------------

sim::Message DistributedController::hop_message(const Agent& a) const {
  // The hop carries exactly the agent state §4.3 says rides the taxi: the
  // two distance counters, the Bag level, and the phase/flag bits.  Its
  // measured encoding is what the network charges — Lemma 4.5's O(log N)
  // claim is checked against these bits, not a formula.
  return sim::Message::agent_hop(a.id, a.distance, a.top_distance,
                                 a.bag_level,
                                 static_cast<std::uint8_t>(a.phase),
                                 a.carrying != kNoPackage);
}

void DistributedController::hop_up(Agent& a) {
  ++messages_;
  static thread_local obs::CounterHandle hops("agent.hops");
  static thread_local obs::CounterHandle climb_steps("filler_search.steps");
  hops.add();
  if (a.phase == Phase::kClimb) climb_steps.add();
  obs::emit(obs::TraceEvent{obs::EventKind::kAgentHop, net_.queue().now(),
                            a.at, a.id, 0});
  a.distance += 1;
  taxi_.hop_up(a.id, a.at, hop_message(a));
}

void DistributedController::hop_down(Agent& a, NodeId to) {
  ++messages_;
  static thread_local obs::CounterHandle hops("agent.hops");
  hops.add();
  // A hop with a package in the Bag is a package move (Lemma 3.3's unit).
  static thread_local obs::CounterHandle moves("moves.total");
  if (a.carrying != kNoPackage) moves.add();
  obs::emit(obs::TraceEvent{obs::EventKind::kAgentHop, net_.queue().now(),
                            a.at, a.id, 1});
  DYNCON_INVARIANT(a.distance >= 1, "hop_down below the origin");
  a.distance -= 1;
  taxi_.hop_down(a.id, a.at, to, hop_message(a));
}

DistributedController::Agent& DistributedController::agent(AgentId id) {
  Agent* a = agents_.find(id);
  DYNCON_INVARIANT(a != nullptr, "unknown agent id");
  return *a;
}

void DistributedController::resume_waiter(const agent::Waiter& w,
                                          NodeId at) {
  taxi_.resume_local(w.agent, at, w.came_from);
}

void DistributedController::resume_waiter_tail(const agent::Waiter& w,
                                               NodeId at) {
  // Inline the waiter only when the queue proves it would have fired next
  // anyway: a +0 schedule lands at the current tick with the next fresh
  // seq, so if nothing else is pending at this tick (and all in-flight
  // messages ride >= 1-tick links), the scheduled continuation would run
  // immediately after the current event — which is exactly where we are.
  // The depth cap turns a pathological wave into plain scheduling instead
  // of deep recursion; scheduling is always the conservative fallback.
  constexpr std::uint32_t kMaxChain = 128;
  sim::EventQueue& q = net_.queue();
  if (!options_.batch_grants || resume_depth_ >= kMaxChain ||
      net_.guarded_dispatch() || (!q.empty() && q.next_time() <= q.now())) {
    resume_waiter(w, at);
    return;
  }
  ++resume_depth_;
  q.count_extra_fired(1);  // the event this inline call replaces
  on_arrival(w.agent, at, w.came_from);
  --resume_depth_;
  if (resume_depth_ == 0) flush_grants();
}

void DistributedController::note_grant() {
  ++pending_grants_;
  if (resume_depth_ == 0) flush_grants();
}

void DistributedController::flush_grants() {
  if (pending_grants_ == 0) return;
  static thread_local obs::CounterHandle granted_c("permits.granted");
  granted_c.add(pending_grants_);
  pending_grants_ = 0;
}

// ---- arrival dispatch ------------------------------------------------------------

void DistributedController::on_arrival(AgentId id, NodeId node,
                                       NodeId came_from) {
  Agent* ap = agents_.find(id);
  if (ap == nullptr) {
    // Only a crash can leave a dangling delivery (an ARQ retransmission
    // that bridged the outage after its agent was force-finalized); any
    // other miss is a real bug.
    DYNCON_INVARIANT(dead_ids_.count(id) != 0, "unknown agent id");
    static thread_local obs::CounterHandle stale("crash.stale_arrivals");
    stale.add();
    return;
  }
  Agent& a = *ap;
  if (doomed_.count(id) != 0) {
    // The failure detector caught up with a doomed lock holder: its next
    // arrival is where it dies.
    a.at = node;
    kill_agent(id);
    return;
  }
  a.at = node;
  switch (a.phase) {
    case Phase::kStart:
    case Phase::kClimb:
      on_enter(a, node, came_from);
      return;
    case Phase::kProcDown:
      // §5.3: a node observes the permits arriving from above (the hook
      // fires only on real hops, matching the centralized accounting,
      // which excludes the package's starting host).
      if (options_.on_pass_down && a.carrying != kNoPackage) {
        options_.on_pass_down(node, packages_.get(a.carrying).size);
      }
      on_proc_down(a, node);
      return;
    case Phase::kReturnUp:
      on_return_up(a, node);
      return;
    case Phase::kUnlockDown:
      unlock_step(a, node);
      return;
    case Phase::kRejectDown:
      reject_step(a, node);
      return;
    case Phase::kAbortDown:
      abort_step(a, node);
      return;
  }
}

void DistributedController::on_enter(Agent& a, NodeId node,
                                     NodeId came_from) {
  if (boards_.locked(node)) {
    static thread_local obs::CounterHandle lock_waits("agent.lock_waits");
    lock_waits.add();
    obs::emit(obs::TraceEvent{obs::EventKind::kLockWait, net_.queue().now(),
                              node, a.id, 0});
    boards_.enqueue(node, a.id, came_from);
    return;
  }
  boards_.lock(node, a.id, came_from);
  ++a.locks_held;
  evaluate(a);
}

void DistributedController::evaluate(Agent& a) {
  const NodeId node = a.at;

  // A queued request whose subject vanished while it waited has lost its
  // meaning (§4.2).  The subject cannot die once we hold the origin's lock
  // (its remover would have to pass through here), so checking when the
  // origin lock is (re)acquired is sufficient.
  if (a.distance == 0 && moot(a.request)) {
    --a.locks_held;
    const auto waiter = boards_.unlock(node, a.id);
    a.result = Result{Outcome::kMoot};
    obs::count("requests.moot");
    obs::emit(obs::TraceEvent{obs::EventKind::kRequestMoot,
                              net_.queue().now(), node, a.id, 0});
    finish(a);  // `a` is gone after this
    if (waiter) resume_waiter_tail(*waiter, node);
    return;
  }

  // Item 1b: a reject node sends the agent home, rejecting.
  if (packages_.has_reject(node)) {
    a.phase = Phase::kRejectDown;
    reject_step(a, node);
    return;
  }

  // Item 2: a static package at the *origin* grants on the spot.
  if (a.distance == 0) {
    if (PackageId st = packages_.find_static(node); st != kNoPackage) {
      a.result.outcome = Outcome::kGranted;
      a.result.serial = packages_.consume_one(st);
      ++granted_;
      note_grant();
      obs::emit(obs::TraceEvent{obs::EventKind::kPermitGranted,
                                net_.queue().now(), node,
                                a.result.serial.value_or(~0ULL), storage_});
      apply_event_at_grant(a);
      terminate_at_origin(a);
      return;
    }
  }

  // Item 3: filler check — the windows partition distances by level, so
  // only one level can match at this node.
  const std::uint32_t lvl = params_.creation_level(a.distance);
  if (PackageId p = packages_.find_mobile_of_level(node, lvl);
      p != kNoPackage) {
    begin_proc(a, p, lvl);
    return;
  }

  if (node == tree_.root()) {
    root_logic(a);
    return;
  }

  a.phase = Phase::kClimb;
  hop_up(a);
}

// ---- item 3c: at the root ------------------------------------------------------

void DistributedController::root_logic(Agent& a) {
  const std::uint32_t j = params_.creation_level(a.distance);
  const std::uint64_t need = params_.mobile_size(j);

  if (exhausted_ || storage_ < need) {
    if (options_.mode == Mode::kExhaustSignal) {
      exhausted_ = true;
      a.result.outcome = Outcome::kExhausted;
      obs::count("requests.exhausted");
      obs::emit(obs::TraceEvent{obs::EventKind::kRequestExhausted,
                                net_.queue().now(), a.origin, a.id, 0});
      a.phase = Phase::kAbortDown;
      abort_step(a, a.at);
      return;
    }
    if (!wave_) start_reject_flood();
    a.phase = Phase::kRejectDown;
    reject_step(a, a.at);
    return;
  }

  Interval serials;
  if (!storage_serials_.empty()) serials = storage_serials_.take_low(need);
  storage_ -= need;
  const PackageId p = packages_.create_mobile(tree_.root(), j, need, serials);
  begin_proc(a, p, j);
}

// ---- Proc: carry, split, grant ----------------------------------------------------

void DistributedController::begin_proc(Agent& a, PackageId p,
                                       std::uint32_t level) {
  a.top_distance = a.distance;
  if (domains_) domains_->drop(p);  // canceled: the package is being moved
  packages_.pick_up(p);
  a.carrying = p;
  a.bag_level = level;
  a.phase = Phase::kProcDown;
  on_proc_down(a, a.at);
}

void DistributedController::on_proc_down(Agent& a, NodeId node) {
  const std::uint64_t target =
      a.bag_level > 0 ? params_.uk_distance(a.bag_level - 1) : 0;
  if (a.distance > target) {
    const NodeId down = boards_.down_child(node);
    if (down == kNoNode) {
      throw InvariantError(
          "down pointer missing on locked path: agent=" +
          std::to_string(a.id) + " node=" + std::to_string(node) +
          " origin=" + std::to_string(a.origin) +
          " dist=" + std::to_string(a.distance) +
          " top=" + std::to_string(a.top_distance) +
          " bag=" + std::to_string(a.bag_level) +
          " locked=" + std::to_string(boards_.locked(node)) +
          " locked_by=" + std::to_string(boards_.locked_by(node)) +
          " type=" + std::to_string(static_cast<int>(a.request.type)));
    }
    hop_down(a, down);
    return;
  }
  DYNCON_INVARIANT(a.distance == target, "overshot u_k on the way down");

  if (a.bag_level == 0) {
    DYNCON_INVARIANT(node == a.origin, "level-0 delivery away from origin");
    deliver_grant(a);
    return;
  }

  // This node is u_{bag_level-1}: split, leave one half, carry the other.
  packages_.put_down(a.carrying, node);
  auto [stay, go] = packages_.split_mobile(a.carrying);
  if (domains_) {
    // Domain of the staying level-(k-1) package: the 2^(k-2)*psi nodes
    // immediately below this node on the (locked, hence stable) path to
    // the origin.  Analysis-only bookkeeping, no messages (paper §3.2).
    const std::uint64_t dsize = params_.domain_size(a.bag_level - 1);
    DYNCON_INVARIANT(dsize <= a.distance, "domain would overrun the path");
    std::vector<NodeId> dom;
    dom.reserve(dsize);
    for (std::uint64_t i = 1; i <= dsize; ++i) {
      dom.push_back(tree_.ancestor_at(a.origin, a.distance - i));
    }
    domains_->assign(stay, std::move(dom));
  }
  packages_.pick_up(go);
  a.carrying = go;
  a.bag_level -= 1;

  const NodeId down = boards_.down_child(node);
  DYNCON_INVARIANT(down != kNoNode, "down pointer missing at u_k");
  hop_down(a, down);
}

void DistributedController::deliver_grant(Agent& a) {
  packages_.put_down(a.carrying, a.origin);
  packages_.make_static(a.carrying);
  a.result.outcome = Outcome::kGranted;
  a.result.serial = packages_.consume_one(a.carrying);
  a.carrying = kNoPackage;
  ++granted_;
  note_grant();
  obs::emit(obs::TraceEvent{obs::EventKind::kPermitGranted,
                            net_.queue().now(), a.origin,
                            a.result.serial.value_or(~0ULL), storage_});
  // "The requested event takes place when the request is granted" (item
  // 2): applying it here, while every lock from the origin to the topmost
  // node is still held, is what makes the serialization of Lemmas 4.3-4.5
  // airtight — in particular no other agent can see the subject between
  // its own moot check and its grant.
  apply_event_at_grant(a);

  if (a.top_distance == 0) {
    // The filler was the origin itself; nothing to unlock above.
    terminate_at_origin(a);
    return;
  }
  a.phase = Phase::kReturnUp;
  hop_up(a);
}

void DistributedController::apply_event_at_grant(Agent& a) {
  if (!options_.apply_events) return;
  const NodeId origin = a.origin;
  switch (a.request.type) {
    case RequestSpec::Type::kEvent:
      return;
    case RequestSpec::Type::kAddLeaf:
      a.result.new_node = tree_.add_leaf(a.request.subject);
      obs::emit(obs::TraceEvent{obs::EventKind::kLinkAdded,
                                net_.queue().now(), a.result.new_node,
                                a.request.subject, 0});
      return;
    case RequestSpec::Type::kAddInternal: {
      // The insertion always splits the edge between the origin (which we
      // hold locked) and its child toward the subject.  Concurrent
      // insertions between submit time and now may have put other nodes
      // between that child and the originally named subject; splitting any
      // other edge would mutate a path segment some other agent has
      // locked, which is exactly the race the locking discipline exists to
      // prevent.
      DYNCON_INVARIANT(
          tree_.is_ancestor(origin, a.request.subject) &&
              origin != a.request.subject,
          "add-internal subject is not a proper descendant of the origin");
      NodeId child = a.request.subject;
      while (tree_.parent(child) != origin) child = tree_.parent(child);
      const NodeId m = tree_.add_internal_above(child);
      a.result.new_node = m;
      obs::emit(obs::TraceEvent{obs::EventKind::kLinkAdded,
                                net_.queue().now(), m, origin, 0});
      // Graceful insertion handshake: at most one agent holds `child`'s
      // lock and has already counted the child->origin hop (it is waiting
      // in the origin's queue).  The new node m is spliced into that
      // agent's locked path: m starts out locked by it with the down
      // pointer to `child`, the agent's distance grows by the new edge,
      // and its future lock of the origin records m as the arrival child.
      // queue_mut's reference stays valid while lock(m, ...) grows the
      // columns (deque-of-deques stability).
      for (auto& w : boards_.queue_mut(origin)) {
        if (w.came_from != child) continue;
        Agent& qa = agent(w.agent);
        qa.distance += 1;
        boards_.lock(m, qa.id, child);
        ++qa.locks_held;
        w.came_from = m;
      }
      // The splice rewrites waiter entries and a parked agent's distance
      // directly (the set_observer caveat): journal the origin's board.
      boards_.mark_dirty(origin);
      return;
    }
    case RequestSpec::Type::kRemove: {
      DYNCON_INVARIANT(a.request.subject == origin,
                       "remove request away from its subject");
      boards_.release_for_removal(origin, a.id);
      --a.locks_held;
      const NodeId parent = tree_.parent(origin);
      obs::emit(obs::TraceEvent{obs::EventKind::kLinkRemoved,
                                net_.queue().now(), origin, parent, 0});

      // Requests waiting at the dying node: requests about the node itself
      // lose their meaning; everything else moves to the parent with its
      // distance intact (the path contracts by exactly the hop it
      // counted).
      agent::WhiteboardManager::Queue& q = boards_.queue_mut(origin);
      agent::WhiteboardManager::Queue kept;
      std::vector<AgentId> moot_ids;
      for (const auto& w : q) {
        Agent& qa = agent(w.agent);
        if (qa.origin == origin) {
          const auto t = qa.request.type;
          if (t == RequestSpec::Type::kRemove ||
              t == RequestSpec::Type::kAddLeaf) {
            moot_ids.push_back(w.agent);
            continue;
          }
          qa.origin = parent;
          if (t == RequestSpec::Type::kEvent) qa.request.subject = parent;
        }
        kept.push_back(w);
      }
      q = std::move(kept);
      boards_.mark_dirty(origin);

      const std::size_t npkgs = packages_.move_all(origin, parent);
      const auto evict = boards_.evict_to_parent(origin, parent);

      // Graceful-deletion data handoff: O(deg(v) + packages + queue)
      // messages of O(log N) bits (§4.4.1).
      const std::uint64_t handoff =
          tree_.children(origin).size() + npkgs + evict.moved + 1;
      messages_ += handoff;
      // Each handoff record references the dying node; the prototype's
      // measured size is what every modeled message is charged.
      net_.charge(sim::Message::data_move(origin), handoff);

      tree_.remove_node(origin);
      // The evicted queue now lives in the parent's journal entry; drop the
      // dead node's slot.
      if (durable_) durable_->erase(origin);

      for (AgentId mid : moot_ids) {
        Agent& ma = agent(mid);
        ma.result = Result{Outcome::kMoot};
        finish(ma);
      }
      // The parent can only be unlocked if we never climbed (a grant from
      // a static package at the origin); otherwise we hold it ourselves.
      if (evict.resume) resume_waiter(*evict.resume, parent);

      // The agent itself relocates: its origin is gone, the path above
      // contracted by exactly one hop.
      a.origin = parent;
      a.at = parent;
      a.distance = 0;
      if (a.top_distance > 0) a.top_distance -= 1;
      return;
    }
  }
}

void DistributedController::on_return_up(Agent& a, NodeId node) {
  if (a.distance < a.top_distance) {
    hop_up(a);
    return;
  }
  a.phase = Phase::kUnlockDown;
  unlock_step(a, node);
}

void DistributedController::unlock_step(Agent& a, NodeId node) {
  if (node == a.origin) {
    terminate_at_origin(a);
    return;
  }
  const NodeId down = boards_.down_child(node);
  DYNCON_INVARIANT(down != kNoNode, "down pointer missing on unlock walk");
  --a.locks_held;
  const auto waiter = boards_.unlock(node, a.id);
  hop_down(a, down);
  if (waiter) resume_waiter_tail(*waiter, node);
}

// ---- rejects -----------------------------------------------------------------

void DistributedController::reject_step(Agent& a, NodeId node) {
  if (!packages_.has_reject(node)) packages_.create_reject(node);
  if (node == a.origin) {
    a.result.outcome = Outcome::kRejected;
    ++rejects_;
    obs::count("permits.rejected");
    obs::emit(obs::TraceEvent{obs::EventKind::kRequestRejected,
                              net_.queue().now(), node, a.id, 0});
    terminate_at_origin(a);
    return;
  }
  const NodeId down = boards_.down_child(node);
  DYNCON_INVARIANT(down != kNoNode, "down pointer missing on reject walk");
  --a.locks_held;
  const auto waiter = boards_.unlock(node, a.id);
  hop_down(a, down);
  if (waiter) resume_waiter_tail(*waiter, node);
}

void DistributedController::abort_step(Agent& a, NodeId node) {
  if (node == a.origin) {
    terminate_at_origin(a);
    return;
  }
  const NodeId down = boards_.down_child(node);
  DYNCON_INVARIANT(down != kNoNode, "down pointer missing on abort walk");
  --a.locks_held;
  const auto waiter = boards_.unlock(node, a.id);
  hop_down(a, down);
  if (waiter) resume_waiter_tail(*waiter, node);
}

void DistributedController::start_reject_flood() {
  wave_ = true;
  exhausted_ = true;
  obs::count("wave.count");
  obs::emit(obs::TraceEvent{obs::EventKind::kWaveStart, net_.queue().now(),
                            tree_.root(), tree_.size(), 0});
  boards_.set_flooded(tree_.root(), true);
  boards_.mark_dirty(tree_.root());
  if (!packages_.has_reject(tree_.root())) {
    packages_.create_reject(tree_.root());
  }
  flood_fanout(tree_.root());
}

void DistributedController::flood_fanout(NodeId from) {
  for (NodeId c : tree_.children(from)) {
    ++messages_;
    net_.send(from, c, sim::Message::reject_wave(), [this, c] {
                if (!tree_.alive(c)) return;
                if (boards_.flooded(c)) return;
                boards_.set_flooded(c, true);
                boards_.mark_dirty(c);
                if (!packages_.has_reject(c)) packages_.create_reject(c);
                flood_fanout(c);
              });
  }
}

// ---- termination (the atomic step of Lemma 4.3's serialization) -------------------

void DistributedController::terminate_at_origin(Agent& a) {
  // Events were already applied at grant time (apply_event_at_grant);
  // termination only releases the origin's lock — unless a granted removal
  // already released everything (the origin is gone and the agent stands
  // relocated at its old parent with no remaining climb).  The dequeued
  // waiter resumes at the tail, after finish() delivered the verdict: the
  // tail position is what lets resume_waiter_tail run it inline.
  std::optional<agent::Waiter> waiter;
  const NodeId origin = a.origin;
  if (a.locks_held > 0) {
    --a.locks_held;
    waiter = boards_.unlock(origin, a.id);
  }
  finish(a);  // `a` is gone after this
  if (waiter) resume_waiter_tail(*waiter, origin);
}

void DistributedController::finish(Agent& a) {
  if (a.locks_held != 0) {
    throw InvariantError("agent finishing with locks held: " +
                         std::to_string(a.locks_held) + " agent=" +
                         std::to_string(a.id) + " phase=" +
                         std::to_string(static_cast<int>(a.phase)) +
                         " type=" +
                         std::to_string(static_cast<int>(a.request.type)) +
                         " origin=" + std::to_string(a.origin) +
                         " top=" + std::to_string(a.top_distance) +
                         " outcome=" + outcome_name(a.result.outcome));
  }
  const Result res = a.result;
  Callback done = std::move(a.done);
  agents_.erase(a.id);
  if (done) done(res);
}

// ---- crash faults and recovery (PROTOCOL.md §9) ----------------------------------

void DistributedController::on_crash(NodeId v) {
  if (options_.durability == agent::Durability::kDurable) {
    // Nothing is lost: the journal is the board, and the outage itself is
    // bridged by the reliable channel's retransmissions.
    return;
  }
  if (!tree_.alive(v)) return;
  const agent::WhiteboardManager::Queue& q = boards_.queue(v);
  if (!boards_.locked(v) && q.empty() && !boards_.flooded(v)) {
    return;  // blank board: the crash destroys nothing
  }
  const AgentId holder = boards_.locked_by(v);
  std::vector<AgentId> parked;
  parked.reserve(q.size());
  for (const auto& w : q) parked.push_back(w.agent);
  boards_.wipe(v);

  if (holder != agent::kNoAgent) {
    // The holder itself is elsewhere (its locked path runs through v), but
    // its lock — and the down pointer its return walk depends on —
    // evaporated with the board.  It is doomed: the failure detector kills
    // it at its next arrival, or the orphan-lock release wave collects it.
    Agent& h = agent(holder);
    DYNCON_INVARIANT(h.locks_held >= 1, "crashed holder held no locks");
    --h.locks_held;
    doomed_.insert(holder);
    static thread_local obs::CounterHandle doomed("crash.holders_doomed");
    doomed.add();
  }
  // Waiters parked at v *are* whiteboard state — they die with it, in
  // queue order so the kill sequence is deterministic.
  for (AgentId id : parked) kill_agent(id);
  // A doomed holder that is itself parked at another node will never
  // arrive anywhere on its own; collect it now rather than leaving it to
  // a release wave that may not be wired up.
  if (holder != agent::kNoAgent && doomed_.count(holder) != 0) {
    for (NodeId u : tree_.alive_nodes()) {
      bool found = false;
      for (const auto& w : boards_.queue(u)) {
        found = found || w.agent == holder;
      }
      if (found) {
        kill_agent(holder);
        break;
      }
    }
  }
}

void DistributedController::on_restart(NodeId v) {
  if (options_.durability != agent::Durability::kDurable) return;
  if (!tree_.alive(v) || durable_ == nullptr || !durable_->has(v)) return;
  // Replay the journal.  The live board doubles as the model answer: the
  // decoded snapshot must reproduce it exactly, which proves both codec
  // fidelity and dirty-tracking completeness — a missed mark_dirty surfaces
  // here as a loud divergence, not as silent corruption.
  const agent::BoardSnapshot decoded = durable_->restore(v);
  agent::BoardSnapshot live;
  snapshot_board(v, live);
  DYNCON_INVARIANT(decoded == live,
                   "durable journal diverged from the live whiteboard");
  agent::WhiteboardManager::Queue q;
  for (const agent::ParkedAgent& p : decoded.queue) {
    q.push_back(agent::Waiter{p.agent, p.came_from});
  }
  boards_.restore(v, decoded.locked ? decoded.locked_by : agent::kNoAgent,
                  decoded.down_child, decoded.flooded, std::move(q));
  static thread_local obs::CounterHandle restored("recovery.boards_restored");
  restored.add();
  static thread_local obs::CounterHandle reinc("recovery.agents_reincarnated");
  reinc.add(decoded.queue.size());
}

bool DistributedController::crash_recover() {
  bool acted = false;
  while (!doomed_.empty()) {
    kill_agent(*doomed_.begin());
    acted = true;
  }
  if (acted) obs::count("recovery.release_waves");
  return acted ||
         (options_.crashes != nullptr && options_.crashes->any_down());
}

void DistributedController::kill_agent(AgentId id) {
  doomed_.erase(id);
  Agent* ap = agents_.find(id);
  DYNCON_INVARIANT(ap != nullptr, "killing an unknown agent");
  Agent& a = *ap;
  // Release every lock it still holds and pull it out of any queue it is
  // parked in; alive_nodes() fixes a deterministic sweep order.
  for (NodeId v : tree_.alive_nodes()) {
    // The locked_by column scan is the SoA payoff: one POD load per node.
    if (boards_.locked_by(v) == id) {
      DYNCON_INVARIANT(a.locks_held >= 1, "orphan lock without accounting");
      --a.locks_held;
      static thread_local obs::CounterHandle released(
          "recovery.orphan_locks_released");
      released.add();
      auto waiter = boards_.unlock(v, id);
      if (waiter) resume_waiter(*waiter, v);
    }
    if (!boards_.queue(v).empty()) {
      agent::WhiteboardManager::Queue& q = boards_.queue_mut(v);
      const std::size_t before = q.size();
      agent::WhiteboardManager::Queue kept;
      for (const auto& w : q) {
        if (w.agent != id) kept.push_back(w);
      }
      if (kept.size() != before) {
        q = std::move(kept);
        boards_.mark_dirty(v);
      }
    }
  }
  // A carried package is rescued as a static package where the agent
  // stood: statics need no domain (Claim 3.1), so the permits stay
  // grantable instead of leaking from the M budget.
  if (a.carrying != kNoPackage) {
    packages_.put_down(a.carrying, a.at);
    packages_.make_static(a.carrying);
    a.carrying = kNoPackage;
    static thread_local obs::CounterHandle rescued(
        "recovery.packages_rescued");
    rescued.add();
  }
  if (a.result.outcome != Outcome::kGranted) {
    // The protocol made no promise yet; the verdict is a rejection flagged
    // for the wrappers' redrive logic.
    a.result = Result{Outcome::kRejected};
    a.result.crash_failed = true;
    obs::count("crash.requests_failed");
  }
  static thread_local obs::CounterHandle killed("crash.agents_killed");
  killed.add();
  dead_ids_.insert(id);
  finish(a);
}

void DistributedController::snapshot_board(NodeId v,
                                           agent::BoardSnapshot& b) const {
  b.locked = boards_.locked(v);
  b.locked_by = boards_.locked_by(v);
  b.down_child = boards_.down_child(v);
  b.flooded = boards_.flooded(v);
  const agent::WhiteboardManager::Queue& wq = boards_.queue(v);
  b.queue.clear();
  for (const auto& w : wq) {
    const Agent* ap = agents_.find(w.agent);
    DYNCON_INVARIANT(ap != nullptr, "parked agent not in agent table");
    const Agent& a = *ap;
    agent::ParkedAgent p;
    p.agent = w.agent;
    p.came_from = w.came_from;
    p.origin = a.origin;
    p.distance = a.distance;
    p.phase = static_cast<std::uint8_t>(a.phase);
    p.req_type = static_cast<std::uint8_t>(a.request.type);
    p.req_subject = a.request.subject;
    b.queue.push_back(p);
  }
}

// ---- accounting -----------------------------------------------------------------

std::uint64_t DistributedController::unused_permits() const {
  return storage_ + packages_.permits_in_packages();
}

std::uint64_t DistributedController::memory_bits(
    NodeId v, bool designer_port_model) const {
  const std::uint64_t logN = ceil_log2(std::max<std::uint64_t>(
      tree_.size(), 2));
  const std::uint64_t logU = ceil_log2(std::max<std::uint64_t>(
      params_.U(), 2));
  const std::uint64_t logM = ceil_log2(std::max<std::uint64_t>(
      params_.M(), 2));

  std::uint64_t bits = logM + 2 * logU + 8;  // M, W, U, state flag
  if (v == tree_.root()) bits += logM;       // the Storage variable

  // Mobile packages: per present level, a (level, count) pair.
  std::vector<std::uint64_t> level_seen(params_.max_level() + 1, 0);
  std::uint64_t static_permits = 0;
  for (PackageId p : packages_.at(v)) {
    const Package& pkg = packages_.get(p);
    if (pkg.kind == PackageKind::kMobile) {
      level_seen[pkg.level] = 1;
    } else if (pkg.kind == PackageKind::kStatic) {
      static_permits += pkg.size;
    } else {
      bits += 1;  // a reject package is one flag
    }
  }
  for (std::uint64_t seen : level_seen) {
    if (seen) bits += 2 * logU;  // level + count, each <= U
  }
  if (static_permits > 0) bits += logM;  // combined static permit count

  // The agent queue: O(log N) bits per waiting agent — or, in the
  // designer-port model, a single list-head pointer here with the entries
  // distributed among the children (§4.4.2).
  if (designer_port_model) {
    if (!boards_.queue(v).empty()) bits += logN;
  } else {
    bits += boards_.queue(v).size() *
            agent::agent_message_bits(tree_.size(), params_.max_level());
  }
  return bits;
}

std::string DistributedController::debug_agents() const {
  std::string out;
  agents_.for_each([&](const Agent& a) {
    out += "agent " + std::to_string(a.id) + " at=" + std::to_string(a.at) +
           " origin=" + std::to_string(a.origin) +
           " dist=" + std::to_string(a.distance) +
           " phase=" + std::to_string(static_cast<int>(a.phase)) +
           " type=" + std::to_string(static_cast<int>(a.request.type));
    out += " [node locked=" + std::to_string(boards_.locked(a.at)) +
           " by=" + std::to_string(static_cast<long long>(static_cast<std::int64_t>(
                        boards_.locked_by(a.at)))) +
           " queue=" + std::to_string(boards_.queue(a.at).size()) + "]\n";
  });
  return out;
}

// ---- synchronous facade ------------------------------------------------------------

DistributedSyncFacade::DistributedSyncFacade(sim::EventQueue& queue,
                                             DistributedController& ctrl)
    : queue_(queue), ctrl_(ctrl) {}

Result DistributedSyncFacade::run(const RequestSpec& spec) {
  Result out;
  bool fired = false;
  ctrl_.submit(spec, [&out, &fired](const Result& r) {
    out = r;
    fired = true;
  });
  while (!fired && !queue_.empty()) queue_.step();
  DYNCON_INVARIANT(fired, "request never completed");
  return out;
}

Result DistributedSyncFacade::request_event(NodeId u) {
  return run(RequestSpec{RequestSpec::Type::kEvent, u});
}

Result DistributedSyncFacade::request_add_leaf(NodeId parent) {
  return run(RequestSpec{RequestSpec::Type::kAddLeaf, parent});
}

Result DistributedSyncFacade::request_add_internal_above(NodeId child) {
  return run(RequestSpec{RequestSpec::Type::kAddInternal, child});
}

Result DistributedSyncFacade::request_remove(NodeId v) {
  return run(RequestSpec{RequestSpec::Type::kRemove, v});
}

std::uint64_t DistributedSyncFacade::cost() const {
  return ctrl_.messages_used();
}

std::uint64_t DistributedSyncFacade::permits_granted() const {
  return ctrl_.permits_granted();
}

}  // namespace dyncon::core
