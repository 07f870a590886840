#include "apps/size_estimation.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace dyncon::apps {

SizeEstimation::SizeEstimation(sim::Network* net, tree::DynamicTree& tree,
                               double beta, Options options)
    : TerminatingIterations(net, tree),
      beta_(beta),
      options_(std::move(options)) {
  DYNCON_REQUIRE(beta > 1.0, "beta must exceed 1");
  alpha_ = 1.0 - 1.0 / beta;
  start();
}

std::unique_ptr<core::TerminatingController> SizeEstimation::iteration(
    std::uint64_t ni) {
  ni_ = ni;
  messages_base_ += stack_.announce_count(ni, tree_.size());
  const auto budget = static_cast<std::uint64_t>(
      std::floor(alpha_ * static_cast<double>(ni)));
  const std::uint64_t Mi = std::max<std::uint64_t>(budget, 1);
  const std::uint64_t Wi = std::max<std::uint64_t>(Mi / 2, 1);
  core::TerminatingController::Options opts;
  opts.track_domains = options_.track_domains;
  opts.on_pass_down = options_.on_pass_down;
  auto ctrl = std::make_unique<core::TerminatingController>(
      stack_.net(), tree_, Mi, Wi, /*U=*/2 * ni + Mi, std::move(opts));
  if (options_.on_iteration_start) options_.on_iteration_start();
  return ctrl;
}

}  // namespace dyncon::apps
