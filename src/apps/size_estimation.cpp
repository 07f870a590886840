#include "apps/size_estimation.hpp"

#include <algorithm>
#include <cmath>

#include "apps/distributed_size_estimation.hpp"
#include "util/error.hpp"

namespace dyncon::apps {

using core::Outcome;
using core::RequestSpec;
using core::Result;

std::unique_ptr<ISizeEstimation> make_size_estimation(
    sim::Network* net, tree::DynamicTree& tree, double beta,
    ISizeEstimation::Options options) {
  if (net) {
    return std::make_unique<DistributedSizeEstimation>(*net, tree, beta,
                                                       std::move(options));
  }
  return std::make_unique<SizeEstimation>(tree, beta, std::move(options));
}

SizeEstimation::SizeEstimation(tree::DynamicTree& tree, double beta,
                               Options options)
    : tree_(tree), beta_(beta), options_(std::move(options)) {
  DYNCON_REQUIRE(beta > 1.0, "beta must exceed 1");
  alpha_ = 1.0 - 1.0 / beta;
  start_iteration();
}

void SizeEstimation::start_iteration() {
  ++iterations_;
  ni_ = tree_.size();
  // Counting + dissemination of N_i: one broadcast and one upcast.
  control_messages_ += 2 * ni_;
  const auto budget = static_cast<std::uint64_t>(
      std::floor(alpha_ * static_cast<double>(ni_)));
  const std::uint64_t Mi = std::max<std::uint64_t>(budget, 1);
  const std::uint64_t Wi = std::max<std::uint64_t>(Mi / 2, 1);
  core::TerminatingController::Options opts;
  opts.track_domains = options_.track_domains;
  opts.on_pass_down = options_.on_pass_down;
  inner_ = std::make_unique<core::TerminatingController>(
      tree_, Mi, Wi, /*U=*/2 * ni_ + Mi, std::move(opts));
  if (options_.on_iteration_start) options_.on_iteration_start();
}

template <typename Fn>
Result SizeEstimation::with_rotation(Fn&& submit) {
  for (;;) {
    Result r = submit(*inner_);
    if (r.outcome != Outcome::kTerminated) return r;
    // The iteration's controller terminated: between alpha*N_i/2 and
    // alpha*N_i changes happened; recount and start the next iteration.
    messages_base_ += inner_->cost();
    start_iteration();
  }
}

Result SizeEstimation::request_add_leaf(NodeId parent) {
  return with_rotation([&](core::TerminatingController& c) {
    return c.request_add_leaf(parent);
  });
}

Result SizeEstimation::request_add_internal_above(NodeId child) {
  return with_rotation([&](core::TerminatingController& c) {
    return c.request_add_internal_above(child);
  });
}

Result SizeEstimation::request_remove(NodeId v) {
  return with_rotation(
      [&](core::TerminatingController& c) { return c.request_remove(v); });
}

void SizeEstimation::submit(const RequestSpec& spec, Callback done) {
  DYNCON_REQUIRE(spec.type != RequestSpec::Type::kEvent,
                 "size estimation meters topological changes only");
  DYNCON_REQUIRE(static_cast<bool>(done), "null completion callback");
  switch (spec.type) {
    case RequestSpec::Type::kAddLeaf:
      done(request_add_leaf(spec.subject));
      break;
    case RequestSpec::Type::kAddInternal:
      done(request_add_internal_above(spec.subject));
      break;
    default:
      done(request_remove(spec.subject));
      break;
  }
}

std::uint64_t SizeEstimation::messages() const {
  return messages_base_ + control_messages_ + inner_->cost();
}

}  // namespace dyncon::apps
