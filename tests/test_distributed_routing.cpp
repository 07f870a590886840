// Tests for the distributed compact-routing scheme: stretch-1 routes under
// asynchronous churn with all control traffic on the wire.

#include <gtest/gtest.h>

#include "apps/interval_labeling.hpp"
#include "tree/validate.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon::apps {
namespace {

using core::RequestSpec;
using core::Result;
using tree::DynamicTree;

struct Sim {
  sim::EventQueue queue;
  sim::Network net;
  DynamicTree tree;
  explicit Sim(sim::DelayKind kind = sim::DelayKind::kFixed,
               std::uint64_t seed = 1)
      : net(queue, sim::make_delay(kind, seed)) {}
};

std::uint64_t tree_distance(const DynamicTree& t, NodeId u, NodeId v) {
  std::uint64_t du = t.depth(u), dv = t.depth(v);
  NodeId a = u, b = v;
  while (du > dv) {
    a = t.parent(a);
    --du;
  }
  while (dv > du) {
    b = t.parent(b);
    --dv;
  }
  std::uint64_t d = (t.depth(u) - du) + (t.depth(v) - dv);
  while (a != b) {
    a = t.parent(a);
    b = t.parent(b);
    d += 2;
  }
  return d;
}

void audit(const DynamicTree& t, const IntervalLabeling& router,
           Rng& rng, int samples) {
  const auto nodes = t.alive_nodes();
  if (nodes.size() < 2) return;
  for (int i = 0; i < samples; ++i) {
    const NodeId u = nodes[rng.index(nodes.size())];
    const NodeId v = nodes[rng.index(nodes.size())];
    if (u == v) continue;
    const auto hops = router.route(u, v);
    ASSERT_EQ(hops.back(), v);
    ASSERT_EQ(hops.size(), tree_distance(t, u, v)) << u << "->" << v;
  }
}

TEST(DistRouting, StaticRoutesCorrect) {
  Sim s;
  Rng rng(1);
  workload::build(s.tree, workload::Shape::kRandomAttach, 50, rng);
  IntervalLabeling router(s.net, s.tree);
  audit(s.tree, router, rng, 200);
}

TEST(DistRouting, SerializedChurnStaysStretchOne) {
  Sim s;
  Rng rng(2);
  workload::build(s.tree, workload::Shape::kRandomAttach, 32, rng);
  IntervalLabeling router(s.net, s.tree);
  workload::ChurnGenerator churn(workload::ChurnModel::kInternalChurn,
                                 Rng(3));
  for (int i = 0; i < 250; ++i) {
    if (s.tree.size() < 4) break;
    const auto spec = churn.next(s.tree);
    switch (spec.type) {
      case RequestSpec::Type::kAddLeaf:
        router.submit_add_leaf(spec.subject, [](const Result&) {});
        break;
      case RequestSpec::Type::kAddInternal:
        router.submit_add_internal_above(spec.subject, [](const Result&) {});
        break;
      case RequestSpec::Type::kRemove:
        router.submit_remove(spec.subject, [](const Result&) {});
        break;
      default:
        break;
    }
    s.queue.run();
    if (i % 25 == 0) audit(s.tree, router, rng, 40);
  }
  audit(s.tree, router, rng, 100);
}

TEST(DistRouting, ConcurrentBurstsStayCorrectAtQuiescence) {
  for (auto kind : {sim::DelayKind::kUniform, sim::DelayKind::kReorder}) {
    Sim s(kind, 37);
    Rng rng(5);
    workload::build(s.tree, workload::Shape::kRandomAttach, 40, rng);
    IntervalLabeling router(s.net, s.tree);
    workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath,
                                   Rng(7));
    for (int burst = 0; burst < 30; ++burst) {
      for (int i = 0; i < 4; ++i) {
        const auto spec = churn.next(s.tree);
        if (spec.type == RequestSpec::Type::kAddLeaf) {
          router.submit_add_leaf(spec.subject, [](const Result&) {});
        } else if (spec.type == RequestSpec::Type::kRemove) {
          router.submit_remove(spec.subject, [](const Result&) {});
        }
      }
      s.queue.run();
      ASSERT_TRUE(tree::validate(s.tree).ok());
      audit(s.tree, router, rng, 20);
    }
  }
}

TEST(DistRouting, ShrinkRelabelsAndBitsStayTight) {
  Sim s;
  Rng rng(9);
  workload::build(s.tree, workload::Shape::kRandomAttach, 400, rng);
  IntervalLabeling router(s.net, s.tree);
  workload::ChurnGenerator churn(workload::ChurnModel::kShrink, Rng(11));
  while (s.tree.size() > 16) {
    router.submit_remove(churn.next(s.tree).subject, [](const Result&) {});
    s.queue.run();
  }
  EXPECT_GT(router.relabels(), 1u);
  EXPECT_LE(router.label_bits(), ceil_log2(s.tree.size()) + 10);
  audit(s.tree, router, rng, 100);
}

}  // namespace
}  // namespace dyncon::apps
