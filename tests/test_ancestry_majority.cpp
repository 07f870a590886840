// Tests for the ancestry-labeling extension (§5.4, Cor. 5.7) and the
// majority-commitment application (§1.3).

#include <gtest/gtest.h>

#include "apps/interval_labeling.hpp"
#include "apps/majority_commit.hpp"
#include "sync_result.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon::apps {
namespace {

using tree::DynamicTree;
using workload::ChurnGenerator;
using workload::ChurnModel;

void audit_all_pairs(const DynamicTree& t, const IntervalLabeling& lab) {
  const auto nodes = t.alive_nodes();
  for (NodeId u : nodes) {
    for (NodeId v : nodes) {
      ASSERT_EQ(lab.is_ancestor(u, v), t.is_ancestor(u, v))
          << "pair (" << u << "," << v << ")";
    }
  }
}

TEST(Ancestry, InitialLabelsAnswerAllPairs) {
  Rng rng(1);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 40, rng);
  IntervalLabeling lab(t);
  audit_all_pairs(t, lab);
}

TEST(Ancestry, DeletionsPreserveCorrectness) {
  Rng rng(2);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 60, rng);
  IntervalLabeling lab(t);
  ChurnGenerator churn(ChurnModel::kShrink, Rng(3));
  while (t.size() > 10) {
    const NodeId v = churn.next(t).subject;
    ASSERT_TRUE(sync_result([&](auto done) {
                  lab.submit_remove(v, done);
                }).granted());
  }
  audit_all_pairs(t, lab);
}

TEST(Ancestry, ShrinkTriggersRelabelKeepingBitsOptimal) {
  Rng rng(4);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 512, rng);
  IntervalLabeling lab(t);
  const std::uint64_t initial_relabels = lab.relabels();
  ChurnGenerator churn(ChurnModel::kShrink, Rng(5));
  while (t.size() > 16) {
    const NodeId v = churn.next(t).subject;
    ASSERT_TRUE(sync_result([&](auto done) {
                  lab.submit_remove(v, done);
                }).granted());
  }
  EXPECT_GT(lab.relabels(), initial_relabels)
      << "a 32x shrink must trigger relabeling";
  // log n + O(1) bits: n = 16 here, so far below the 512-node label size.
  EXPECT_LE(lab.label_bits(), ceil_log2(t.size()) + 10);
}

TEST(Ancestry, MixedChurnStaysCorrect) {
  Rng rng(6);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 30, rng);
  IntervalLabeling lab(t);
  ChurnGenerator churn(ChurnModel::kInternalChurn, Rng(7));
  for (int i = 0; i < 150; ++i) {
    if (t.size() < 4) break;
    lab.submit(churn.next(t), [](const core::Result&) {});
    if (i % 10 == 0) audit_all_pairs(t, lab);
  }
  audit_all_pairs(t, lab);
}

TEST(Ancestry, InsertionsKeepBitsBounded) {
  Rng rng(8);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 16, rng);
  IntervalLabeling lab(t);
  ChurnGenerator churn(ChurnModel::kGrowOnly, Rng(9));
  for (int i = 0; i < 500; ++i) {
    const NodeId parent = churn.next(t).subject;
    ASSERT_TRUE(sync_result([&](auto done) {
                  lab.submit_add_leaf(parent, done);
                }).granted());
  }
  EXPECT_LE(lab.label_bits(), ceil_log2(t.size()) + 10);
}

TEST(Majority, UnanimousYesCommits) {
  Rng rng(10);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 50, rng);
  MajorityCommit mc(t, 1.2);
  for (NodeId v : t.alive_nodes()) mc.cast_vote(v, Vote::kYes);
  EXPECT_EQ(mc.decide(), Decision::kCommit);
}

TEST(Majority, UnanimousNoAborts) {
  Rng rng(11);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 50, rng);
  MajorityCommit mc(t, 1.2);
  for (NodeId v : t.alive_nodes()) mc.cast_vote(v, Vote::kNo);
  EXPECT_EQ(mc.decide(), Decision::kAbort);
}

TEST(Majority, CommitImpliesTrueMajority) {
  // Soundness under churn: whenever decide() commits, the YES voters alive
  // at that moment are a strict majority of the *current* network.
  Rng rng(12);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 64, rng);
  MajorityCommit mc(t, 1.2);
  Rng votes(13);
  for (NodeId v : t.alive_nodes()) {
    mc.cast_vote(v, votes.chance(0.7) ? Vote::kYes : Vote::kNo);
  }
  ChurnGenerator churn(ChurnModel::kBirthDeath, Rng(14));
  for (int i = 0; i < 200; ++i) {
    const auto spec = churn.next(t);
    if (spec.type == core::RequestSpec::Type::kAddLeaf) {
      const auto r = mc.request_add_leaf(spec.subject);
      if (r.granted()) {
        mc.cast_vote(r.new_node, votes.chance(0.7) ? Vote::kYes : Vote::kNo);
      }
    } else {
      mc.request_remove(spec.subject);
    }
    if (i % 20 != 0) continue;
    // Soundness contract: the threshold always clears half the true size,
    // so any commit is backed by a strict majority.
    EXPECT_GE(mc.commit_threshold() * 2, t.size() + 1);
    mc.decide();
  }
}

TEST(Majority, RejectsOutOfRangeBeta) {
  DynamicTree t;
  EXPECT_THROW(MajorityCommit(t, 1.5), ContractError);  // 1.5^2 > 2
  EXPECT_THROW(MajorityCommit(t, 0.9), ContractError);
}

TEST(Majority, ThresholdTracksEstimate) {
  Rng rng(15);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 100, rng);
  MajorityCommit mc(t, 1.3);
  // threshold = floor(1.3 * 100 / 2) + 1 = 66.
  EXPECT_EQ(mc.commit_threshold(), 66u);
}

}  // namespace
}  // namespace dyncon::apps
