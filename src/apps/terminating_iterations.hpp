#pragma once

// The iteration loop §5.1 and §5.2 share, over either controller stack.
//
// Iteration i counts the nodes, N_i, and runs a terminating controller the
// protocol builds for N_i.  When that controller terminates, the requests
// in flight drain, the nodes are counted again (a real convergecast on the
// simulator) and iteration i+1 starts; requests that arrive meanwhile are
// queued and replayed on it.  Only topological requests flow through: the
// protocols meter membership changes.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/iterated.hpp"

namespace dyncon::apps {

class TerminatingIterations {
 public:
  using Callback = core::BaseController::Callback;

  TerminatingIterations(const TerminatingIterations&) = delete;
  TerminatingIterations& operator=(const TerminatingIterations&) = delete;

  void submit(const core::RequestSpec& spec, Callback done);
  void submit_add_leaf(NodeId parent, Callback done);
  void submit_add_internal_above(NodeId child, Callback done);
  void submit_remove(NodeId v, Callback done);

  // The centralized stack's synchronous facade.
  core::Result request_add_leaf(NodeId parent);
  core::Result request_add_internal_above(NodeId child);
  core::Result request_remove(NodeId v);

  [[nodiscard]] std::uint64_t iterations() const { return iterations_; }
  /// Between iterations: the old controller drains and N_i is recounted.
  [[nodiscard]] bool rotating() const { return rotating_; }
  /// Total messages: controller traffic plus the protocol's own.
  [[nodiscard]] std::uint64_t messages() const;

 protected:
  TerminatingIterations(sim::Network* net, tree::DynamicTree& tree);
  ~TerminatingIterations();

  /// Start the first iteration (from the protocol's constructor).
  void start() { next_iteration(tree_.size()); }
  /// The controller of a new iteration over `ni` counted nodes.
  virtual std::unique_ptr<core::TerminatingController> iteration(
      std::uint64_t ni) = 0;
  /// Sees each verdict before the requester does.
  virtual void on_verdict(const core::RequestSpec& /*spec*/,
                          const core::Result& /*r*/) {}

  core::Stack stack_;
  tree::DynamicTree& tree_;
  /// Cost of retired iterations and of the protocol's own traffic.
  std::uint64_t messages_base_ = 0;

 private:
  void next_iteration(std::uint64_t ni);
  void begin_rotation();
  void dispatch(const core::RequestSpec& spec, Callback done);

  std::unique_ptr<core::TerminatingController> inner_;
  std::uint64_t iterations_ = 0;
  bool rotating_ = false;
  std::vector<std::pair<core::RequestSpec, Callback>> pending_;
};

}  // namespace dyncon::apps
