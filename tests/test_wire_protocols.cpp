// Every distributed protocol, run end-to-end with (a) the strict
// message-size envelope armed at c1 + c2*ceil(log2 U) bits and (b) the
// debug round-trip verification active, so the O(log N)-bit claim of
// §2.1.1/Lemma 4.5 is enforced on *measured* wire sizes while the protocols
// do real work.  A protocol that starts sending an over-budget field fails
// these tests at the offending send, not in a bench column.

#include <gtest/gtest.h>

#include <cstdint>

#include "apps/distributed_name_assignment.hpp"
#include "apps/distributed_size_estimation.hpp"
#include "apps/heavy_child.hpp"
#include "apps/interval_labeling.hpp"
#include "apps/nca_labeling.hpp"
#include "core/distributed_adaptive.hpp"
#include "core/distributed_controller.hpp"
#include "core/distributed_iterated.hpp"
#include "util/log2.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/shapes.hpp"

namespace dyncon {
namespace {

using core::RequestSpec;
using core::Result;

/// Generous-but-logarithmic envelope: any message measuring above this for
/// the given universe size U is a bug.  The additive term covers the tag,
/// topic/phase bits and the gamma/varint constants on tiny trees, where
/// ceil(log2 U) alone would be unrealistically tight.
std::uint64_t envelope_bits(std::uint64_t u) {
  return 32 + 16 * ceil_log2(u < 2 ? 2 : u);
}

struct Sim {
  sim::EventQueue queue;
  sim::Network net;
  tree::DynamicTree tree;

  explicit Sim(std::uint64_t seed = 1)
      : net(queue, sim::make_delay(sim::DelayKind::kUniform, seed)) {}
};

/// Post-run checks shared by every protocol case.
void expect_wire_discipline(const Sim& s, std::uint64_t u) {
  const sim::NetStats& st = s.net.stats();
  EXPECT_GT(st.messages, 0u) << "protocol sent nothing; vacuous test";
#ifndef NDEBUG
  EXPECT_GT(st.roundtrip_checks, 0u)
      << "debug round-trip verification never ran";
#endif
  for (std::size_t k = 0; k < sim::NetStats::kKinds; ++k) {
    EXPECT_LE(st.max_bits_by_kind[k], envelope_bits(u))
        << "kind " << sim::msg_kind_name(static_cast<sim::MsgKind>(k))
        << " exceeds the c*log U envelope";
  }
}

/// For apps exposing only leaf-level operations (routing/labeling): grow
/// the tree leaf by leaf, which forces their periodic DFS relabel walks.
template <typename Protocol>
void grow_leaves(Sim& s, Protocol& proto, int steps, std::uint64_t seed) {
  Rng rng(seed);
  int answered = 0;
  for (int i = 0; i < steps; ++i) {
    const auto& alive = s.tree.alive_nodes();
    proto.submit_add_leaf(alive[rng.index(alive.size())],
                          [&](const Result&) { ++answered; });
    s.queue.run();
  }
  EXPECT_GT(answered, 0);
}

template <typename Protocol>
void churn_through(Sim& s, Protocol& proto, int steps,
                   workload::ChurnModel model, std::uint64_t seed) {
  workload::ChurnGenerator churn(model, Rng(seed));
  int answered = 0;
  for (int i = 0; i < steps; ++i) {
    if (s.tree.size() < 4) break;
    proto.submit(churn.next(s.tree), [&](const Result&) { ++answered; });
    s.queue.run();
  }
  EXPECT_GT(answered, 0);
}

TEST(WireProtocols, DistributedControllerUnderStrictEnvelope) {
  Sim s(11);
  Rng rng(2);
  workload::build(s.tree, workload::Shape::kRandomAttach, 48, rng);
  const std::uint64_t u = 512;
  s.net.set_strict_max_bits(envelope_bits(u));
  core::DistributedController ctrl(s.net, s.tree, core::Params(40, 8, u));
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    ctrl.submit_event(s.tree.alive_nodes()[rng.index(s.tree.size())],
                      [&](const Result&) { ++done; });
    s.queue.run();
  }
  EXPECT_EQ(done, 40);
  expect_wire_discipline(s, u);
  EXPECT_GT(s.net.stats().kind(sim::MsgKind::kAgent), 0u);
}

TEST(WireProtocols, RejectFloodStaysInEnvelope) {
  // Exhaust a tiny controller so the reject wave (kReject traffic) fires.
  Sim s(13);
  Rng rng(3);
  workload::build(s.tree, workload::Shape::kBinary, 16, rng);
  const std::uint64_t u = 64;
  s.net.set_strict_max_bits(envelope_bits(u));
  core::DistributedController ctrl(s.net, s.tree, core::Params(4, 1, u));
  int done = 0;
  for (int i = 0; i < 12; ++i) {
    ctrl.submit_event(s.tree.root(), [&](const Result&) { ++done; });
    s.queue.run();
  }
  EXPECT_EQ(done, 12);
  EXPECT_GT(s.net.stats().kind(sim::MsgKind::kReject), 0u)
      << "flood never triggered; the case tests nothing";
  expect_wire_discipline(s, u);
}

TEST(WireProtocols, DistributedIteratedUnderStrictEnvelope) {
  Sim s(17);
  Rng rng(5);
  workload::build(s.tree, workload::Shape::kRandomAttach, 32, rng);
  const std::uint64_t u = 4096;
  s.net.set_strict_max_bits(envelope_bits(u));
  core::DistributedIterated ctrl(s.net, s.tree, /*M=*/24, /*W=*/2, u);
  churn_through(s, ctrl, 80, workload::ChurnModel::kBirthDeath, 7);
  expect_wire_discipline(s, u);
  // The budget is small enough that the run must have crossed at least one
  // iteration boundary, whose rotate broadcast is kControl traffic.
  EXPECT_GT(s.net.stats().kind(sim::MsgKind::kControl), 0u)
      << "rotation traffic never exercised";
}

TEST(WireProtocols, DistributedAdaptiveUnderStrictEnvelope) {
  Sim s(19);
  Rng rng(7);
  workload::build(s.tree, workload::Shape::kRandomAttach, 32, rng);
  // The adaptive controller sizes its own iterations from the live tree;
  // U here only parameterizes the envelope we assert against.
  const std::uint64_t u = 4096;
  s.net.set_strict_max_bits(envelope_bits(u));
  core::DistributedAdaptive ctrl(s.net, s.tree, /*M=*/48, /*W=*/4);
  churn_through(s, ctrl, 60, workload::ChurnModel::kBirthDeath, 9);
  expect_wire_discipline(s, u);
}

TEST(WireProtocols, SizeEstimationUnderStrictEnvelope) {
  Sim s(23);
  Rng rng(11);
  workload::build(s.tree, workload::Shape::kRandomAttach, 48, rng);
  const std::uint64_t u = 4096;
  s.net.set_strict_max_bits(envelope_bits(u));
  apps::DistributedSizeEstimation est(s.net, s.tree, 2.0);
  churn_through(s, est, 80, workload::ChurnModel::kBirthDeath, 13);
  EXPECT_GE(est.iterations(), 1u);
  expect_wire_discipline(s, u);
}

TEST(WireProtocols, NameAssignmentUnderStrictEnvelope) {
  Sim s(29);
  Rng rng(15);
  workload::build(s.tree, workload::Shape::kRandomAttach, 32, rng);
  const std::uint64_t u = 4096;
  s.net.set_strict_max_bits(envelope_bits(u));
  apps::DistributedNameAssignment names(s.net, s.tree);
  churn_through(s, names, 60, workload::ChurnModel::kBirthDeath, 17);
  expect_wire_discipline(s, u);
}

TEST(WireProtocols, TreeRoutingUnderStrictEnvelope) {
  Sim s(31);
  Rng rng(19);
  workload::build(s.tree, workload::Shape::kRandomAttach, 32, rng);
  const std::uint64_t u = 4096;
  s.net.set_strict_max_bits(envelope_bits(u));
  apps::IntervalLabeling routing(s.net, s.tree);
  grow_leaves(s, routing, 60, 21);
  expect_wire_discipline(s, u);
}

TEST(WireProtocols, NcaLabelingUnderStrictEnvelope) {
  Sim s(37);
  Rng rng(23);
  workload::build(s.tree, workload::Shape::kRandomAttach, 32, rng);
  const std::uint64_t u = 4096;
  s.net.set_strict_max_bits(envelope_bits(u));
  apps::NcaLabeling nca(s.net, s.tree);
  grow_leaves(s, nca, 60, 25);
  expect_wire_discipline(s, u);
}

TEST(WireProtocols, AncestryLabelingUnderStrictEnvelope) {
  Sim s(41);
  Rng rng(27);
  workload::build(s.tree, workload::Shape::kRandomAttach, 32, rng);
  const std::uint64_t u = 4096;
  s.net.set_strict_max_bits(envelope_bits(u));
  apps::IntervalLabeling anc(s.net, s.tree);
  grow_leaves(s, anc, 60, 29);
  expect_wire_discipline(s, u);
}

TEST(WireProtocols, HeavyChildUnderStrictEnvelope) {
  Sim s(43);
  Rng rng(31);
  workload::build(s.tree, workload::Shape::kRandomAttach, 32, rng);
  const std::uint64_t u = 4096;
  s.net.set_strict_max_bits(envelope_bits(u));
  apps::HeavyChild heavy(s.net, s.tree);
  churn_through(s, heavy, 60, workload::ChurnModel::kBirthDeath, 33);
  expect_wire_discipline(s, u);
}

#ifndef NDEBUG
TEST(WireProtocols, ControllerLinkCheckCatchesOffTreeSend) {
  // The controller installs its tree-adjacency hook on construction; a
  // non-app message between unrelated nodes must now trip the contract.
  Sim s(47);
  Rng rng(35);
  workload::build(s.tree, workload::Shape::kStar, 8, rng);
  core::DistributedController ctrl(s.net, s.tree, core::Params(8, 2, 64));
  const auto& leaves = s.tree.alive_nodes();
  // Two distinct leaves of a star are never tree-adjacent.
  const NodeId a = leaves[1], b = leaves[2];
  EXPECT_THROW(s.net.send(a, b, sim::Message::reject_wave(), [] {}),
               InvariantError);
  // kApp traffic (point-to-point metering) is exempt by design.
  s.net.send(a, b, sim::Message::app_payload(8), [] {});
}
#endif

}  // namespace
}  // namespace dyncon
