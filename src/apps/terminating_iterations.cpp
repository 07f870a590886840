#include "apps/terminating_iterations.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace dyncon::apps {

using core::Outcome;
using core::RequestSpec;
using core::Result;

TerminatingIterations::TerminatingIterations(sim::Network* net,
                                             tree::DynamicTree& tree)
    : stack_(net), tree_(tree) {}

TerminatingIterations::~TerminatingIterations() = default;

void TerminatingIterations::next_iteration(std::uint64_t ni) {
  ++iterations_;
  rotating_ = false;
  inner_ = iteration(std::max<std::uint64_t>(ni, 1));
  // Replay whatever queued up during the rotation.
  auto pend = std::move(pending_);
  pending_.clear();
  for (auto& [spec, cb] : pend) dispatch(spec, std::move(cb));
}

void TerminatingIterations::begin_rotation() {
  if (rotating_) return;
  rotating_ = true;
  // Drain every request of the terminated controller, then (once its call
  // chain has unwound) count the nodes and restart.  No topological change
  // can happen during the count: all grants are drained and new requests
  // are queued in pending_.
  inner_->terminate([this] {
    stack_.after_unwind([this] {
      messages_base_ += inner_->cost();
      inner_.reset();
      stack_.count_nodes(tree_,
                         [this](std::uint64_t n) { next_iteration(n); });
    });
  });
}

void TerminatingIterations::dispatch(const RequestSpec& spec, Callback done) {
  if (rotating_) {
    pending_.emplace_back(spec, std::move(done));
    return;
  }
  inner_->submit(spec, [this, spec, done = std::move(done)](
                           const Result& r) mutable {
    if (r.outcome == Outcome::kTerminated) {
      // Iteration over: queue the request for the next one and rotate.
      pending_.emplace_back(spec, std::move(done));
      begin_rotation();
      return;
    }
    on_verdict(spec, r);
    done(r);
  });
}

void TerminatingIterations::submit(const RequestSpec& spec, Callback done) {
  DYNCON_REQUIRE(spec.type != RequestSpec::Type::kEvent,
                 "the protocol meters topological changes only");
  DYNCON_REQUIRE(static_cast<bool>(done), "null completion callback");
  stack_.enter([&] { dispatch(spec, std::move(done)); });
}

void TerminatingIterations::submit_add_leaf(NodeId parent, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddLeaf, parent}, std::move(done));
}

void TerminatingIterations::submit_add_internal_above(NodeId child,
                                                      Callback done) {
  submit(RequestSpec{RequestSpec::Type::kAddInternal, child},
         std::move(done));
}

void TerminatingIterations::submit_remove(NodeId v, Callback done) {
  submit(RequestSpec{RequestSpec::Type::kRemove, v}, std::move(done));
}

Result TerminatingIterations::request_add_leaf(NodeId parent) {
  return stack_.run_inline(
      [&](Callback done) { submit_add_leaf(parent, done); });
}

Result TerminatingIterations::request_add_internal_above(NodeId child) {
  return stack_.run_inline(
      [&](Callback done) { submit_add_internal_above(child, done); });
}

Result TerminatingIterations::request_remove(NodeId v) {
  return stack_.run_inline([&](Callback done) { submit_remove(v, done); });
}

std::uint64_t TerminatingIterations::messages() const {
  return messages_base_ + stack_.count_messages() +
         (inner_ ? inner_->cost() : 0);
}

}  // namespace dyncon::apps
