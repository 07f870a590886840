#pragma once

// Front-end request multiplexer for the forest runtime.
//
// Models a large closed-loop user population driving a *forest* of
// controller-managed trees: every user repeatedly (1) picks a tree — Zipf
// skewed, so a few trees are hot the way a few tenants always are —
// (2) issues one grow / shrink / permit request against it, (3) waits for
// the completion, thinks, and goes again.  First arrivals are paced by an
// on/off modulated ArrivalProcess: traffic comes in waves.
//
// Determinism is the whole design: every user owns a split-chain Rng, so
// the request stream of user u is a pure function of (seed, u) and of the
// completion times the engine feeds back — never of how trees are sharded
// or which thread served them.  The engine clamps follow-up arrivals to
// its next virtual-time window edge by passing `floor`; the clamp amount
// is recorded in the forest.mux.defer histogram.

#include <cstdint>
#include <vector>

#include "obs/span.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "workload/arrival.hpp"

namespace dyncon::workload {

/// What a forest user asks a tree for.
enum class ForestOp : std::uint8_t {
  kPermit,   ///< non-topological event request (a "ticket")
  kGrow,     ///< add-leaf under a popular site
  kShrink,   ///< remove a previously grown leaf
  kDestroy,  ///< tenant teardown: drop the tree's state entirely
};

[[nodiscard]] constexpr const char* forest_op_name(ForestOp op) {
  switch (op) {
    case ForestOp::kPermit:
      return "permit";
    case ForestOp::kGrow:
      return "grow";
    case ForestOp::kShrink:
      return "shrink";
    case ForestOp::kDestroy:
      return "destroy";
  }
  return "?";
}

struct MuxConfig {
  std::uint64_t users = 1024;
  std::uint64_t trees = 64;
  std::uint64_t requests_per_user = 8;
  /// Tree-popularity skew: 0 = uniform, ~1 = classic Zipf.
  double zipf_s = 1.1;
  /// Request mix; the permit fraction is the remainder.
  double grow_fraction = 0.15;
  double shrink_fraction = 0.10;
  /// Fraction of requests that tear the target tree down (tenant churn).
  /// Default 0 keeps the draw sequence — and hence every seeded stream —
  /// exactly what it was before the knob existed.
  double destroy_fraction = 0.0;
  /// Mean think time between a completion and the user's next request.
  SimTime mean_think = 12;
};

/// One routed request: user `user` wants `op` on tree `tree`, submittable
/// from simulated time `ready` on.  `trace` is the request's causal trace
/// id (dense, 1-based issue order — a pure function of the request stream,
/// so it is shard-count invariant); it rides in this engine-side struct,
/// never on the wire.
struct MuxRequest {
  SimTime ready = 0;
  std::uint64_t user = 0;
  obs::TraceId trace = obs::kNoTrace;
  std::uint32_t tree = 0;
  ForestOp op = ForestOp::kPermit;
};

class RequestMux {
 public:
  RequestMux(MuxConfig cfg, std::uint64_t seed);

  /// Every user's first request, sorted by (ready, user).  Call once.
  [[nodiscard]] std::vector<MuxRequest> initial_requests();

  /// Compute user `user`'s next request after a completion at time `done`.
  /// `floor` is the earliest admissible arrival time (the engine's next
  /// window edge); think time pushes past it, never before.  Returns false
  /// when the user has exhausted its request budget.
  ///
  /// Also CLOSES the completed request: observes its end-to-end latency
  /// (done - ready) in the req.latency.<op> histogram and, when a SpanSink
  /// is installed, emits the trace's root span [ready, done].  Callers
  /// drive this once per completion, in global (done, user) order, so the
  /// emission order is shard-count invariant.
  bool next_request(std::uint64_t user, SimTime done, SimTime floor,
                    MuxRequest& out);

  [[nodiscard]] std::uint64_t users() const { return cfg_.users; }
  [[nodiscard]] std::uint64_t trees() const { return cfg_.trees; }
  [[nodiscard]] std::uint64_t total_requests() const {
    return cfg_.users * cfg_.requests_per_user;
  }
  /// Requests handed out so far (initial + follow-ups).
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] const ZipfSelector& tree_selector() const { return zipf_; }

 private:
  struct UserState {
    Rng rng;
    std::uint64_t remaining = 0;
    MuxRequest pending;  ///< the outstanding request (valid iff in_flight)
    bool in_flight = false;
  };

  /// Draw tree + op from the user's own stream (shard-schedule invariant).
  void draw(UserState& u, MuxRequest& out);
  [[nodiscard]] SimTime think(UserState& u);
  /// Close `u`'s in-flight request at completion time `done`: latency
  /// histogram + root span.
  void close_pending(UserState& u, SimTime done);

  MuxConfig cfg_;
  ZipfSelector zipf_;
  std::uint64_t pacing_seed_;  ///< seeds the initial-ramp ArrivalProcess
  std::vector<UserState> users_;
  std::uint64_t issued_ = 0;
  obs::TraceId next_trace_ = 0;  ///< last issued trace id (1-based)
  bool initial_done_ = false;
};

}  // namespace dyncon::workload
