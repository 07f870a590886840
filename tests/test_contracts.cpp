// Systematic contract coverage: every public precondition (DYNCON_REQUIRE)
// must fire as ContractError on misuse, and never on correct use.  API
// misuse must be loud, not undefined.

#include <gtest/gtest.h>

#include "apps/size_estimation.hpp"
#include "core/distributed_controller.hpp"
#include "core/iterated.hpp"
#include "core/message_meter.hpp"
#include "util/rng.hpp"
#include "workload/shapes.hpp"

namespace dyncon {
namespace {

using core::CentralizedController;
using core::Params;
using tree::DynamicTree;

TEST(Contracts, TreeApi) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  EXPECT_THROW(t.add_leaf(999), ContractError);
  EXPECT_THROW(t.remove_leaf(t.root()), ContractError);
  EXPECT_THROW(t.remove_internal(a), ContractError);  // a is a leaf
  EXPECT_THROW(t.add_internal_above(t.root()), ContractError);
  EXPECT_THROW(t.remove_node(t.root()), ContractError);
  EXPECT_THROW((void)t.parent(999), ContractError);
  EXPECT_THROW((void)t.depth(999), ContractError);
  EXPECT_THROW((void)t.ancestor_at(a, 5), ContractError);
  EXPECT_THROW(t.add_observer(nullptr), ContractError);
  t.remove_leaf(a);
  EXPECT_THROW(t.remove_leaf(a), ContractError);  // already dead
}

TEST(Contracts, ParamsApi) {
  EXPECT_THROW(Params(0, 1, 1), ContractError);
  EXPECT_THROW(Params(1, 0, 1), ContractError);
  EXPECT_THROW(Params(1, 1, 0), ContractError);
  const Params p(10, 5, 8);
  EXPECT_THROW((void)p.mobile_size(p.max_level() + 1), ContractError);
  EXPECT_THROW((void)p.level_of_size(3), ContractError);
  EXPECT_THROW((void)p.with_psi_scale(0, 1), ContractError);
  EXPECT_THROW((void)p.with_psi_scale(1, 0), ContractError);
}

TEST(Contracts, ControllerApi) {
  Rng rng(1);
  DynamicTree t;
  workload::build(t, workload::Shape::kPath, 4, rng);
  CentralizedController ctrl(t, Params(10, 5, 8));
  const NodeId leaf = t.alive_nodes().back();
  EXPECT_THROW(ctrl.request_event(12345), ContractError);
  EXPECT_THROW(ctrl.request_remove(t.root()), ContractError);
  EXPECT_THROW(ctrl.request_add_internal_above(t.root()), ContractError);
  EXPECT_THROW(ctrl.request_add_leaf(12345), ContractError);
  ASSERT_TRUE(ctrl.request_remove(leaf).granted());
  EXPECT_THROW(ctrl.request_event(leaf), ContractError);  // dead node
}

TEST(Contracts, SerialIntervalMustMatchM) {
  DynamicTree t;
  CentralizedController::Options opts;
  opts.serials = Interval(1, 7);  // 7 serials for M = 10
  EXPECT_THROW(CentralizedController(t, Params(10, 5, 8), opts),
               ContractError);
}

TEST(Contracts, DistributedApi) {
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kFixed, 1));
  DynamicTree t;
  core::DistributedController ctrl(net, t, Params(10, 5, 8));
  EXPECT_THROW(ctrl.submit_event(999, [](const core::Result&) {}),
               ContractError);
  EXPECT_THROW(ctrl.submit_remove(t.root(), [](const core::Result&) {}),
               ContractError);
  EXPECT_THROW(
      ctrl.submit_add_internal_above(t.root(), [](const core::Result&) {}),
      ContractError);
  EXPECT_THROW(ctrl.submit_event(t.root(), nullptr), ContractError);
}

TEST(Contracts, AppsApi) {
  Rng rng(2);
  DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 8, rng);
  EXPECT_THROW(apps::SizeEstimation(t, 1.0), ContractError);
  apps::SizeEstimation est(t, 2.0);
  EXPECT_THROW(est.request_remove(t.root()), ContractError);
}

TEST(Contracts, MeterApi) {
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kFixed, 1));
  DynamicTree t;
  core::IteratedController ctrl(t, 5, 1, 2);
  core::MessageMeter meter(ctrl, net);
  EXPECT_THROW(meter.send(t.root(), t.root(), 8, nullptr), ContractError);
}

TEST(Contracts, InvariantAndContractAreDistinct) {
  // Misuse is ContractError; internal breakage is InvariantError — callers
  // can catch the former without masking bugs.
  static_assert(!std::is_base_of_v<InvariantError, ContractError>);
  static_assert(!std::is_base_of_v<ContractError, InvariantError>);
  EXPECT_THROW(
      []() { DYNCON_REQUIRE(false, "nope"); }(), ContractError);
  EXPECT_THROW(
      []() { DYNCON_INVARIANT(false, "broken"); }(), InvariantError);
}

}  // namespace
}  // namespace dyncon
