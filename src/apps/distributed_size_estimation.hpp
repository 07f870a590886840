#pragma once

// The size-estimation protocol of §5.1, fully distributed.
//
// Unlike apps/size_estimation (which drives the centralized controller
// stack and charges control traffic analytically), this variant runs on
// the asynchronous simulator end to end: iteration i counts N_i with a
// real broadcast/convergecast, disseminates it, and admits topological
// changes through a distributed terminating (alpha*N_i, alpha*N_i/2)-
// controller; when that controller terminates, the next iteration starts.
// Requests that arrive during a rotation are queued and replayed.
//
// The estimate held "at every node" is the N_i of the current iteration
// (the dissemination broadcast is part of the counted traffic), and it is
// a beta-approximation of the live size at all times.

#include <cstdint>
#include <deque>
#include <memory>

#include "agent/convergecast.hpp"
#include "apps/size_estimation.hpp"
#include "core/distributed_iterated.hpp"

namespace dyncon::apps {

class DistributedSizeEstimation final : public ISizeEstimation {
 public:
  DistributedSizeEstimation(sim::Network& net, tree::DynamicTree& tree,
                            double beta, Options options);
  DistributedSizeEstimation(sim::Network& net, tree::DynamicTree& tree,
                            double beta)
      : DistributedSizeEstimation(net, tree, beta, Options{}) {}

  void submit(const core::RequestSpec& spec, Callback done) override;
  void submit_add_leaf(NodeId parent, Callback done);
  void submit_add_internal_above(NodeId child, Callback done);
  void submit_remove(NodeId v, Callback done);
  void charge(const sim::Message& prototype, std::uint64_t count) override {
    net_.charge(prototype, count);
  }

  [[nodiscard]] std::uint64_t estimate() const override { return ni_; }
  [[nodiscard]] double beta() const override { return beta_; }
  [[nodiscard]] std::uint64_t iterations() const override {
    return iterations_;
  }
  [[nodiscard]] bool rotating() const { return rotating_; }
  [[nodiscard]] std::uint64_t messages() const override;

 private:
  void start_iteration(std::uint64_t ni);
  void begin_rotation();
  void dispatch(const core::RequestSpec& spec, Callback done);

  sim::Network& net_;
  tree::DynamicTree& tree_;
  double beta_;
  double alpha_;
  Options options_;

  agent::Convergecast cast_;
  std::unique_ptr<core::DistributedTerminating> inner_;
  std::uint64_t ni_ = 0;
  std::uint64_t iterations_ = 0;
  bool rotating_ = false;
  std::deque<std::pair<core::RequestSpec, Callback>> pending_;
  std::uint64_t messages_base_ = 0;
};

}  // namespace dyncon::apps
