// Tests for the fully distributed applications: size estimation over the
// asynchronous simulator and the two-phase commit round.

#include <gtest/gtest.h>

#include "apps/distributed_name_assignment.hpp"
#include "apps/distributed_size_estimation.hpp"
#include "apps/heavy_child.hpp"
#include "apps/two_phase_commit.hpp"
#include "tree/validate.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon::apps {
namespace {

using core::Outcome;
using core::RequestSpec;
using core::Result;

struct Sim {
  sim::EventQueue queue;
  sim::Network net;
  tree::DynamicTree tree;

  explicit Sim(sim::DelayKind kind = sim::DelayKind::kFixed,
               std::uint64_t seed = 1)
      : net(queue, sim::make_delay(kind, seed)) {}
};

TEST(DistSizeEstimation, BetaInvariantUnderSerializedChurn) {
  Sim s;
  Rng rng(1);
  workload::build(s.tree, workload::Shape::kRandomAttach, 64, rng);
  const double beta = 2.0;
  DistributedSizeEstimation est(s.net, s.tree, beta);
  workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath, Rng(2));
  for (int i = 0; i < 400; ++i) {
    if (s.tree.size() < 4) break;
    const auto spec = churn.next(s.tree);
    bool fired = false;
    est.submit(spec, [&](const Result& r) {
      fired = true;
      EXPECT_TRUE(r.granted());
    });
    s.queue.run();
    ASSERT_TRUE(fired);
    const double n = static_cast<double>(s.tree.size());
    const double e = static_cast<double>(est.estimate());
    ASSERT_GE(e * beta + 1e-9, n) << "step " << i;
    ASSERT_LE(e, beta * n + 1e-9) << "step " << i;
  }
  EXPECT_GE(est.iterations(), 2u);
}

TEST(DistSizeEstimation, ConcurrentBurstsStayInBand) {
  for (auto kind : {sim::DelayKind::kFixed, sim::DelayKind::kUniform,
                    sim::DelayKind::kHeavyTail}) {
    Sim s(kind, 31);
    Rng rng(3);
    workload::build(s.tree, workload::Shape::kRandomAttach, 48, rng);
    const double beta = 2.0;
    DistributedSizeEstimation est(s.net, s.tree, beta);
    workload::ChurnGenerator churn(workload::ChurnModel::kFlashCrowd,
                                   Rng(5));
    int answered = 0;
    for (int burst = 0; burst < 40; ++burst) {
      for (int i = 0; i < 5; ++i) {
        est.submit(churn.next(s.tree),
                   [&](const Result&) { ++answered; });
      }
      s.queue.run();
      const double n = static_cast<double>(s.tree.size());
      const double e = static_cast<double>(est.estimate());
      ASSERT_GE(e * beta + 1e-9, n)
          << sim::delay_kind_name(kind) << " burst " << burst;
      ASSERT_LE(e, beta * n + 1e-9)
          << sim::delay_kind_name(kind) << " burst " << burst;
      ASSERT_TRUE(tree::validate(s.tree).ok());
    }
    EXPECT_EQ(answered, 200) << sim::delay_kind_name(kind);
  }
}

TEST(DistSizeEstimation, RejectsNonTopologicalRequests) {
  Sim s;
  DistributedSizeEstimation est(s.net, s.tree, 2.0);
  EXPECT_THROW(est.submit(RequestSpec{RequestSpec::Type::kEvent, 0},
                          [](const Result&) {}),
               ContractError);
}

TEST(DistSizeEstimation, MessagesAmortizePolylog) {
  Sim s;
  Rng rng(7);
  workload::build(s.tree, workload::Shape::kRandomAttach, 256, rng);
  DistributedSizeEstimation est(s.net, s.tree, 2.0);
  workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath, Rng(9));
  const int steps = 600;
  for (int i = 0; i < steps; ++i) {
    est.submit(churn.next(s.tree), [](const Result&) {});
    if (i % 8 == 7) s.queue.run();
  }
  s.queue.run();
  const double per = static_cast<double>(est.messages()) / steps;
  EXPECT_LT(per, static_cast<double>(s.tree.size()) / 2.0)
      << "no better than flooding";
}

TEST(TwoPhaseCommit, UnanimousYesCommitsEverywhere) {
  Sim s;
  Rng rng(11);
  workload::build(s.tree, workload::Shape::kRandomAttach, 40, rng);
  TwoPhaseCommit tpc(s.net, s.tree, 1.3);
  for (NodeId v : s.tree.alive_nodes()) tpc.set_vote(v, Vote::kYes);
  Decision got = Decision::kAbort;
  bool fired = false;
  tpc.run_round([&](Decision d) {
    got = d;
    fired = true;
  });
  s.queue.run();
  ASSERT_TRUE(fired);
  EXPECT_EQ(got, Decision::kCommit);
  for (NodeId v : s.tree.alive_nodes()) {
    EXPECT_EQ(tpc.decision_at(v), Decision::kCommit);
  }
}

TEST(TwoPhaseCommit, MinorityYesAborts) {
  Sim s;
  Rng rng(13);
  workload::build(s.tree, workload::Shape::kRandomAttach, 40, rng);
  TwoPhaseCommit tpc(s.net, s.tree, 1.3);
  const auto nodes = s.tree.alive_nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    tpc.set_vote(nodes[i], i % 3 == 0 ? Vote::kYes : Vote::kNo);
  }
  Decision got = Decision::kCommit;
  tpc.run_round([&](Decision d) { got = d; });
  s.queue.run();
  EXPECT_EQ(got, Decision::kAbort);
}

TEST(TwoPhaseCommit, SoundUnderChurn) {
  // Across churn + voting rounds: every COMMIT is backed by a strict
  // majority of the live network at decision time.
  Sim s(sim::DelayKind::kUniform, 17);
  Rng rng(15);
  workload::build(s.tree, workload::Shape::kRandomAttach, 64, rng);
  TwoPhaseCommit tpc(s.net, s.tree, 1.3);
  Rng votes(19);
  std::unordered_map<NodeId, Vote> ballot;
  auto vote_for = [&](NodeId v) {
    const Vote w = votes.chance(0.62) ? Vote::kYes : Vote::kNo;
    ballot[v] = w;
    tpc.set_vote(v, w);
  };
  for (NodeId v : s.tree.alive_nodes()) vote_for(v);

  workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath, Rng(21));
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 15; ++i) {
      const auto spec = churn.next(s.tree);
      if (spec.type == RequestSpec::Type::kAddLeaf) {
        tpc.submit_add_leaf(spec.subject, [&](const Result& r) {
          if (r.granted()) vote_for(r.new_node);
        });
      } else if (spec.type == RequestSpec::Type::kRemove) {
        tpc.submit_remove(spec.subject, [](const Result&) {});
      }
    }
    s.queue.run();  // quiesce before the round

    Decision got = Decision::kAbort;
    bool fired = false;
    tpc.run_round([&](Decision d) {
      got = d;
      fired = true;
    });
    s.queue.run();
    ASSERT_TRUE(fired);
    if (got == Decision::kCommit) {
      std::uint64_t yes = 0;
      for (NodeId v : s.tree.alive_nodes()) {
        auto it = ballot.find(v);
        yes += it != ballot.end() && it->second == Vote::kYes;
      }
      EXPECT_GT(2 * yes, s.tree.size()) << "commit without a majority";
    }
  }
  EXPECT_EQ(tpc.rounds(), 12u);
}

TEST(TwoPhaseCommit, RejectsUnsoundBeta) {
  Sim s;
  EXPECT_THROW(TwoPhaseCommit(s.net, s.tree, 1.5), ContractError);
}

TEST(DistNameAssignment, InitialIdsDenseUnique) {
  Sim s;
  Rng rng(23);
  workload::build(s.tree, workload::Shape::kRandomAttach, 50, rng);
  DistributedNameAssignment names(s.net, s.tree);
  EXPECT_TRUE(names.ids_unique());
  EXPECT_LE(names.max_id(), 50u);
}

TEST(DistNameAssignment, InvariantsUnderSerializedChurn) {
  Sim s;
  Rng rng(25);
  workload::build(s.tree, workload::Shape::kRandomAttach, 32, rng);
  DistributedNameAssignment names(s.net, s.tree);
  workload::ChurnGenerator churn(workload::ChurnModel::kInternalChurn,
                                 Rng(27));
  for (int i = 0; i < 300; ++i) {
    if (s.tree.size() < 4) break;
    names.submit(churn.next(s.tree), [](const Result&) {});
    s.queue.run();
    ASSERT_TRUE(names.ids_unique()) << "step " << i;
    ASSERT_LE(names.max_id(), 4 * s.tree.size()) << "step " << i;
  }
  EXPECT_GE(names.iterations(), 2u);
}

TEST(DistNameAssignment, InvariantsUnderConcurrentBursts) {
  Sim s(sim::DelayKind::kUniform, 41);
  Rng rng(29);
  workload::build(s.tree, workload::Shape::kRandomAttach, 32, rng);
  DistributedNameAssignment names(s.net, s.tree);
  workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath, Rng(31));
  int answered = 0;
  for (int burst = 0; burst < 40; ++burst) {
    for (int i = 0; i < 5; ++i) {
      names.submit(churn.next(s.tree), [&](const Result&) { ++answered; });
    }
    s.queue.run();
    ASSERT_TRUE(names.ids_unique()) << "burst " << burst;
    ASSERT_LE(names.max_id(), 4 * s.tree.size()) << "burst " << burst;
  }
  EXPECT_EQ(answered, 200);
}

TEST(DistSubtreeEstimator, BaselineExactAtIterationStart) {
  Sim s;
  Rng rng(51);
  workload::build(s.tree, workload::Shape::kRandomAttach, 48, rng);
  SubtreeEstimator est(s.net, s.tree, 2.0);
  for (NodeId v : s.tree.alive_nodes()) {
    EXPECT_EQ(est.estimate(v), est.true_super_weight(v));
  }
  EXPECT_EQ(est.estimate(s.tree.root()), 48u);
}

TEST(DistSubtreeEstimator, RootCoversSuperWeightUnderChurn) {
  Sim s;
  Rng rng(53);
  workload::build(s.tree, workload::Shape::kRandomAttach, 64, rng);
  SubtreeEstimator est(s.net, s.tree, 2.0);
  workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath, Rng(55));
  for (int i = 0; i < 250; ++i) {
    est.submit(churn.next(s.tree), [](const Result&) {});
    if (i % 5 == 4) s.queue.run();
  }
  s.queue.run();
  const double sw =
      static_cast<double>(est.true_super_weight(s.tree.root()));
  const double e = static_cast<double>(est.estimate(s.tree.root()));
  EXPECT_GE(e * 2.0 + 1e-9, sw);
  EXPECT_LE(e, 2.0 * sw + 1e-9);
}

TEST(DistHeavyChild, LogLightAncestorsUnderAsyncChurn) {
  Sim s(sim::DelayKind::kUniform, 57);
  Rng rng(59);
  workload::build(s.tree, workload::Shape::kRandomAttach, 64, rng);
  HeavyChild hc(s.net, s.tree);
  workload::ChurnGenerator churn(workload::ChurnModel::kInternalChurn,
                                 Rng(61));
  for (int burst = 0; burst < 50; ++burst) {
    for (int i = 0; i < 4; ++i) {
      if (s.tree.size() < 4) break;
      hc.submit(churn.next(s.tree), [](const Result&) {});
    }
    s.queue.run();
    const std::uint64_t bound =
        4 * (ceil_log2(std::max<std::uint64_t>(s.tree.size(), 2)) + 1);
    ASSERT_LE(hc.max_light_ancestors(), bound) << "burst " << burst;
  }
}

TEST(DistHeavyChild, PointersValidAfterChurn) {
  Sim s;
  Rng rng(63);
  workload::build(s.tree, workload::Shape::kCaterpillar, 40, rng);
  HeavyChild hc(s.net, s.tree);
  workload::ChurnGenerator churn(workload::ChurnModel::kBirthDeath, Rng(65));
  for (int i = 0; i < 150; ++i) {
    hc.submit(churn.next(s.tree), [](const Result&) {});
    s.queue.run();
  }
  for (NodeId v : s.tree.alive_nodes()) {
    if (s.tree.is_leaf(v)) {
      EXPECT_EQ(hc.heavy(v), kNoNode);
    } else {
      const NodeId h = hc.heavy(v);
      ASSERT_NE(h, kNoNode);
      EXPECT_EQ(s.tree.parent(h), v);
    }
  }
}

TEST(DistNameAssignment, NewNodesNamedFromSerialRange) {
  Sim s;
  Rng rng(33);
  workload::build(s.tree, workload::Shape::kRandomAttach, 20, rng);
  DistributedNameAssignment names(s.net, s.tree);
  NodeId joined = kNoNode;
  names.submit_add_leaf(s.tree.root(), [&](const Result& r) {
    ASSERT_TRUE(r.granted());
    joined = r.new_node;
  });
  s.queue.run();
  ASSERT_NE(joined, kNoNode);
  EXPECT_GT(names.id_of(joined), 20u);   // serial range starts above N_i
  EXPECT_LE(names.id_of(joined), 30u);   // and ends at 3N_i/2
}

}  // namespace
}  // namespace dyncon::apps
