// Deterministic regressions for the concurrency races of the distributed
// controller — each of these interleavings was at some point a real bug
// (deadlock, leaked lock, or a stale path) and is now pinned:
//
//   A. the graceful-insertion splice: an agent waiting at a node when the
//      lock holder inserts a new node into the waiter's counted path;
//   B. origin relocation: requests queued at a node that gets removed;
//   C. two concurrent add-internal requests above the same child (the
//      effective-child serialization);
//   D. a request whose subject dies while it waits (kMoot at evaluation).
//
// Fixed 1-tick delays make the schedules reproducible.

#include <gtest/gtest.h>

#include <iostream>
#include <vector>

#include "core/distributed_controller.hpp"
#include "obs/events.hpp"
#include "tree/validate.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;

struct Sim {
  sim::EventQueue queue;
  sim::Network net;
  DynamicTree tree;
  obs::EventTrace trace{256};
  obs::ScopedTrace trace_scope{trace};

  Sim() : net(queue, sim::make_delay(sim::DelayKind::kFixed, 1)) {
    trace.enable(true);
  }

  // Race tests are schedule bugs: when one fails, the interleaving that
  // produced it is the evidence.  Dump the typed event tail (JSONL) so the
  // failing schedule is in the test log without a re-run.
  ~Sim() {
    if (::testing::Test::HasFailure() && trace.size() > 0) {
      std::cerr << "--- typed trace tail (" << trace.size() << " of "
                << trace.recorded() << " events, " << trace.overwritten()
                << " overwritten) ---\n";
      trace.dump_jsonl(std::cerr, 64);
    }
  }
};

/// Build the path root -> a -> b -> c and return {a, b, c}.
std::vector<NodeId> make_path(DynamicTree& t, int extra) {
  std::vector<NodeId> out;
  NodeId cur = t.root();
  for (int i = 0; i < extra; ++i) {
    cur = t.add_leaf(cur);
    out.push_back(cur);
  }
  return out;
}

TEST(DistributedRaces, SpliceIntoWaitersPath) {
  // Y (add-internal above c, origin b) holds b's lock when X (event at c)
  // arrives below; Y's grant splices m between b and c — exactly into X's
  // counted path.  X must still complete, and every lock must drain.
  Sim s;
  const auto p = make_path(s.tree, 3);  // a, b, c
  const NodeId b = p[1], c = p[2];
  DistributedController ctrl(s.net, s.tree, Params(20, 10, 64));

  Result ry, rx;
  ctrl.submit_add_internal_above(c, [&](const Result& r) { ry = r; });
  ctrl.submit_event(c, [&](const Result& r) { rx = r; });
  s.queue.run();

  ASSERT_TRUE(ry.granted());
  ASSERT_TRUE(rx.granted());
  const NodeId m = ry.new_node;
  EXPECT_EQ(s.tree.parent(m), b);
  EXPECT_EQ(s.tree.parent(c), m);
  EXPECT_EQ(ctrl.active_agents(), 0u);
  EXPECT_TRUE(tree::validate(s.tree).ok());
  ASSERT_NE(ctrl.domains(), nullptr);
  EXPECT_EQ(ctrl.domains()->check_invariants(), "");
}

TEST(DistributedRaces, QueuedRequestsSurviveOriginRemoval) {
  // R removes b while E (a plain event) waits in b's queue: E relocates to
  // b's parent and must still be granted, not lost and not moot.
  Sim s;
  const auto p = make_path(s.tree, 2);  // a, b
  const NodeId a = p[0], b = p[1];
  DistributedController ctrl(s.net, s.tree, Params(20, 10, 64));

  Result rr, re;
  ctrl.submit_remove(b, [&](const Result& r) { rr = r; });
  ctrl.submit_event(b, [&](const Result& r) { re = r; });
  s.queue.run();

  EXPECT_TRUE(rr.granted());
  EXPECT_FALSE(s.tree.alive(b));
  EXPECT_TRUE(re.granted()) << "relocated request must complete at "
                            << "the parent (" << a << ")";
  EXPECT_EQ(ctrl.active_agents(), 0u);
}

TEST(DistributedRaces, SecondRemoveOfSameNodeIsMoot) {
  Sim s;
  const auto p = make_path(s.tree, 2);
  const NodeId b = p[1];
  DistributedController ctrl(s.net, s.tree, Params(20, 10, 64));
  std::vector<Outcome> outs;
  ctrl.submit_remove(b, [&](const Result& r) { outs.push_back(r.outcome); });
  ctrl.submit_remove(b, [&](const Result& r) { outs.push_back(r.outcome); });
  s.queue.run();
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(std::count(outs.begin(), outs.end(), Outcome::kGranted), 1);
  EXPECT_EQ(std::count(outs.begin(), outs.end(), Outcome::kMoot), 1);
}

TEST(DistributedRaces, ConcurrentAddInternalAboveSameChild) {
  // Both requests arrive at c's (original) parent a.  The first inserts m1
  // between a and c; the second must split the edge (a, m1) — the edge its
  // origin's lock actually guards — NOT the edge (m1, c) some other agent
  // may be walking.
  Sim s;
  const auto p = make_path(s.tree, 2);  // a, c
  const NodeId a = p[0], c = p[1];
  DistributedController ctrl(s.net, s.tree, Params(20, 10, 64));

  Result r1, r2;
  ctrl.submit_add_internal_above(c, [&](const Result& r) { r1 = r; });
  ctrl.submit_add_internal_above(c, [&](const Result& r) { r2 = r; });
  s.queue.run();

  ASSERT_TRUE(r1.granted());
  ASSERT_TRUE(r2.granted());
  const NodeId m1 = r1.new_node, m2 = r2.new_node;
  // Chain: a -> m2 -> m1 -> c (the second wrapper lands above the first).
  EXPECT_EQ(s.tree.parent(c), m1);
  EXPECT_EQ(s.tree.parent(m1), m2);
  EXPECT_EQ(s.tree.parent(m2), a);
  EXPECT_TRUE(tree::validate(s.tree).ok());
  EXPECT_EQ(ctrl.active_agents(), 0u);
}

TEST(DistributedRaces, AddInternalWhoseSubjectDiesIsMoot) {
  // R (remove c) wins the lock race; Y (add-internal above c) waits at a;
  // when Y finally holds its origin lock, c is gone: Y completes kMoot
  // without consuming a permit.
  Sim s;
  const auto p = make_path(s.tree, 2);  // a, c
  const NodeId c = p[1];
  DistributedController ctrl(s.net, s.tree, Params(20, 10, 64));

  Result rr, ry;
  ctrl.submit_remove(c, [&](const Result& r) { rr = r; });
  // Let the remover lock c and then a before the add-internal arrives
  // (creation + one fixed-delay hop = two events), so the add-internal
  // queues behind it and finds its subject gone on resume.
  s.queue.run(2);
  ctrl.submit_add_internal_above(c, [&](const Result& r) { ry = r; });
  s.queue.run();

  EXPECT_TRUE(rr.granted());
  EXPECT_EQ(ry.outcome, Outcome::kMoot);
  EXPECT_EQ(ctrl.permits_granted(), 1u);  // only the removal consumed one
  EXPECT_EQ(ctrl.active_agents(), 0u);
}

TEST(DistributedRaces, AddLeafUnderDyingParentIsMoot) {
  Sim s;
  const auto p = make_path(s.tree, 2);
  const NodeId b = p[1];
  DistributedController ctrl(s.net, s.tree, Params(20, 10, 64));
  Result rr, rl;
  ctrl.submit_remove(b, [&](const Result& r) { rr = r; });
  ctrl.submit_add_leaf(b, [&](const Result& r) { rl = r; });
  s.queue.run();
  EXPECT_TRUE(rr.granted());
  EXPECT_EQ(rl.outcome, Outcome::kMoot);
  EXPECT_EQ(s.tree.size(), 2u);  // root + a; no orphan leaf appeared
}

TEST(DistributedRaces, DeepStackedWrappers) {
  // Hammer the splice + effective-child machinery: many concurrent
  // wrappers above the same deep node, plus a climbing event through the
  // contested edge, across several waves.
  Sim s;
  const auto p = make_path(s.tree, 6);
  const NodeId deep = p.back();
  DistributedController ctrl(s.net, s.tree, Params(200, 100, 512));
  int granted = 0, answered = 0;
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 4; ++i) {
      ctrl.submit_add_internal_above(deep, [&](const Result& r) {
        ++answered;
        granted += r.granted();
      });
    }
    ctrl.submit_event(deep, [&](const Result& r) {
      ++answered;
      granted += r.granted();
    });
    s.queue.run();
    ASSERT_EQ(ctrl.active_agents(), 0u) << "wave " << wave;
    ASSERT_TRUE(tree::validate(s.tree).ok()) << "wave " << wave;
    ASSERT_EQ(ctrl.domains()->check_invariants(), "") << "wave " << wave;
  }
  EXPECT_EQ(answered, 25);
  EXPECT_EQ(granted, 25);
  EXPECT_EQ(s.tree.depth(deep), 6u + 20u);  // every wrapper above `deep`
}

TEST(DistributedRaces, FloodRacesInFlightGrants) {
  // Exhaust the budget with one burst: grants already past the root finish
  // while the reject flood spreads; nobody hangs and every outcome lands.
  Sim s;
  Rng rng(3);
  workload::build(s.tree, workload::Shape::kCaterpillar, 40, rng);
  const std::uint64_t M = 10;
  DistributedController ctrl(s.net, s.tree, Params(M, 2, 64));
  const auto nodes = s.tree.alive_nodes();
  int granted = 0, rejected = 0;
  for (int i = 0; i < 40; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())], [&](const Result& r) {
      granted += r.granted();
      rejected += r.outcome == Outcome::kRejected;
    });
  }
  s.queue.run();
  EXPECT_EQ(granted + rejected, 40);
  EXPECT_LE(granted, static_cast<int>(M));
  EXPECT_GE(granted, static_cast<int>(M - 2));
  EXPECT_TRUE(ctrl.reject_wave_started());
  EXPECT_EQ(ctrl.active_agents(), 0u);
}

TEST(DistributedRaces, TypedTraceRecordsProtocolEvents) {
  // The Sim fixture installs a typed trace; a run that grants and then
  // floods rejects must leave the matching events in the ring.
  Sim s;
  Rng rng(5);
  workload::build(s.tree, workload::Shape::kRandomAttach, 16, rng);
  DistributedController ctrl(s.net, s.tree, Params(4, 1, 64));
  const auto nodes = s.tree.alive_nodes();
  for (int i = 0; i < 12; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())], [](const Result&) {});
  }
  s.queue.run();

  std::uint64_t grants = 0, rejects = 0, hops = 0;
  for (const obs::TraceEvent& e : s.trace.tail_events(256)) {
    grants += e.kind == obs::EventKind::kPermitGranted;
    rejects += e.kind == obs::EventKind::kRequestRejected;
    hops += e.kind == obs::EventKind::kAgentHop;
  }
  EXPECT_GE(grants, 3u);  // M=4, W=1: at least M-W grants
  EXPECT_GE(rejects, 1u);
  EXPECT_GT(hops, 0u);
  EXPECT_GT(s.trace.recorded(), 0u);
}

}  // namespace
}  // namespace dyncon::core
