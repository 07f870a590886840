// Tests for distributed ancestry labeling: exactness of label-only queries
// under asynchronous churn, shrink-triggered relabels, label-size bound.

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
  Sim() : net(queue, sim::make_delay(sim::DelayKind::kUniform, 3)) {}
};

void audit_all_pairs(const DynamicTree& t,
                     const IntervalLabeling& lab) {
  const auto nodes = t.alive_nodes();
  for (NodeId u : nodes) {
    for (NodeId v : nodes) {
      ASSERT_EQ(lab.is_ancestor(u, v), t.is_ancestor(u, v))
          << "pair (" << u << "," << v << ")";
    }
  }
}

TEST(DistAncestry, InitialLabelsExact) {
  Sim s;
  Rng rng(1);
  workload::build(s.tree, workload::Shape::kRandomAttach, 40, rng);
  IntervalLabeling lab(s.net, s.tree);
  audit_all_pairs(s.tree, lab);
}

TEST(DistAncestry, FullChurnStaysExact) {
  Sim s;
  Rng rng(2);
  workload::build(s.tree, workload::Shape::kRandomAttach, 32, rng);
  IntervalLabeling lab(s.net, s.tree);
  workload::ChurnGenerator churn(workload::ChurnModel::kInternalChurn,
                                 Rng(3));
  for (int i = 0; i < 250; ++i) {
    if (s.tree.size() < 4) break;
    const auto spec = churn.next(s.tree);
    switch (spec.type) {
      case RequestSpec::Type::kAddLeaf:
        lab.submit_add_leaf(spec.subject, [](const Result&) {});
        break;
      case RequestSpec::Type::kAddInternal:
        lab.submit_add_internal_above(spec.subject, [](const Result&) {});
        break;
      case RequestSpec::Type::kRemove:
        lab.submit_remove(spec.subject, [](const Result&) {});
        break;
      default:
        break;
    }
    s.queue.run();
    if (i % 25 == 0) audit_all_pairs(s.tree, lab);
  }
  audit_all_pairs(s.tree, lab);
}

TEST(DistAncestry, ConcurrentBurstsExactAtQuiescence) {
  Sim s;
  Rng rng(4);
  workload::build(s.tree, workload::Shape::kCaterpillar, 36, rng);
  IntervalLabeling lab(s.net, s.tree);
  workload::ChurnGenerator churn(workload::ChurnModel::kFlashCrowd, Rng(5));
  for (int burst = 0; burst < 30; ++burst) {
    for (int i = 0; i < 4; ++i) {
      const auto spec = churn.next(s.tree);
      if (spec.type == RequestSpec::Type::kAddLeaf) {
        lab.submit_add_leaf(spec.subject, [](const Result&) {});
      } else if (spec.type == RequestSpec::Type::kRemove) {
        lab.submit_remove(spec.subject, [](const Result&) {});
      }
    }
    s.queue.run();
    ASSERT_TRUE(tree::validate(s.tree).ok());
    if (burst % 5 == 0) audit_all_pairs(s.tree, lab);
  }
  audit_all_pairs(s.tree, lab);
}

TEST(DistAncestry, ShrinkRelabelsKeepBitsTight) {
  Sim s;
  Rng rng(6);
  workload::build(s.tree, workload::Shape::kRandomAttach, 400, rng);
  IntervalLabeling lab(s.net, s.tree);
  workload::ChurnGenerator churn(workload::ChurnModel::kShrink, Rng(7));
  while (s.tree.size() > 16) {
    lab.submit_remove(churn.next(s.tree).subject, [](const Result&) {});
    s.queue.run();
  }
  EXPECT_GT(lab.relabels(), 1u);
  EXPECT_LE(lab.label_bits(), ceil_log2(s.tree.size()) + 10);
  audit_all_pairs(s.tree, lab);
}

}  // namespace
}  // namespace dyncon::apps
