#include "workload/request_mux.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dyncon::workload {

RequestMux::RequestMux(MuxConfig cfg, std::uint64_t seed)
    : cfg_(cfg), zipf_(static_cast<std::size_t>(cfg.trees), cfg.zipf_s) {
  DYNCON_REQUIRE(cfg_.users >= 1, "at least one user");
  DYNCON_REQUIRE(cfg_.trees >= 1, "at least one tree");
  DYNCON_REQUIRE(cfg_.trees <= UINT32_MAX, "tree ids are 32-bit");
  DYNCON_REQUIRE(cfg_.grow_fraction >= 0.0 && cfg_.shrink_fraction >= 0.0 &&
                     cfg_.destroy_fraction >= 0.0 &&
                     cfg_.grow_fraction + cfg_.shrink_fraction +
                             cfg_.destroy_fraction <=
                         1.0,
                 "request mix fractions must form a distribution");
  DYNCON_REQUIRE(cfg_.mean_think >= 1, "mean think time must be >= 1");
  // One split chain for the users: user u's stream depends only on
  // (seed, u), exactly like util::derive_run_rngs.  The pacing seed is
  // drawn first so the initial-ramp process is independent of every user
  // stream.
  Rng parent(seed);
  pacing_seed_ = parent.next();
  users_.resize(static_cast<std::size_t>(cfg_.users));
  for (auto& u : users_) {
    u.rng = parent.split();
    u.remaining = cfg_.requests_per_user;
  }
}

void RequestMux::draw(UserState& u, MuxRequest& out) {
  out.tree = static_cast<std::uint32_t>(zipf_.pick(u.rng));
  const double mix = u.rng.uniform01();
  if (mix < cfg_.grow_fraction) {
    out.op = ForestOp::kGrow;
  } else if (mix < cfg_.grow_fraction + cfg_.shrink_fraction) {
    out.op = ForestOp::kShrink;
  } else if (mix < cfg_.grow_fraction + cfg_.shrink_fraction +
                       cfg_.destroy_fraction) {
    // The destroy band sits after grow+shrink so a 0.0 fraction leaves the
    // branch thresholds — and every seeded op sequence — untouched.
    out.op = ForestOp::kDestroy;
  } else {
    out.op = ForestOp::kPermit;
  }
}

SimTime RequestMux::think(UserState& u) {
  // Geometric-ish think time with the configured mean, cheap and seeded.
  return 1 + u.rng.uniform(0, 2 * cfg_.mean_think);
}

std::vector<MuxRequest> RequestMux::initial_requests() {
  DYNCON_REQUIRE(!initial_done_, "initial_requests is one-shot");
  initial_done_ = true;
  std::vector<MuxRequest> out;
  if (cfg_.requests_per_user == 0) return out;
  out.reserve(users_.size());
  // Arrival times come from one shared on/off process; the i-th arrival
  // belongs to user i, so the ramp is a pure function of the seed.
  const auto arrivals = make_arrivals(ArrivalKind::kOnOff, pacing_seed_);
  SimTime when = 0;
  for (std::size_t i = 0; i < users_.size(); ++i) {
    when += arrivals->next_gap();
    MuxRequest req;
    req.ready = when;
    req.user = i;
    req.trace = ++next_trace_;
    draw(users_[i], req);
    users_[i].remaining -= 1;
    users_[i].pending = req;
    users_[i].in_flight = true;
    out.push_back(req);
  }
  issued_ += out.size();
  std::sort(out.begin(), out.end(), [](const MuxRequest& a,
                                       const MuxRequest& b) {
    return a.ready != b.ready ? a.ready < b.ready : a.user < b.user;
  });
  return out;
}

void RequestMux::close_pending(UserState& u, SimTime done) {
  if (!u.in_flight) return;
  u.in_flight = false;
  const MuxRequest& req = u.pending;
  // End-to-end latency, arrival to completion, per op kind.  Always-on
  // (shard-count invariant: ready and done both are), unlike the span.
  static thread_local obs::HistogramHandle lat_permit("req.latency.permit");
  static thread_local obs::HistogramHandle lat_grow("req.latency.grow");
  static thread_local obs::HistogramHandle lat_shrink("req.latency.shrink");
  static thread_local obs::HistogramHandle lat_destroy("req.latency.destroy");
  const SimTime latency = done - req.ready;
  switch (req.op) {
    case ForestOp::kPermit:
      lat_permit.observe(latency);
      break;
    case ForestOp::kGrow:
      lat_grow.observe(latency);
      break;
    case ForestOp::kShrink:
      lat_shrink.observe(latency);
      break;
    case ForestOp::kDestroy:
      lat_destroy.observe(latency);
      break;
  }
  if (obs::SpanSink* sink = obs::spans()) {
    obs::Span s;
    s.trace = req.trace;
    s.id = obs::kRootSpanId;
    s.kind = obs::SpanKind::kRequest;
    s.op = static_cast<std::uint8_t>(req.op);
    s.label = forest_op_name(req.op);
    s.begin = req.ready;
    s.end = done;
    sink->emit(s);
  }
}

bool RequestMux::next_request(std::uint64_t user, SimTime done, SimTime floor,
                              MuxRequest& out) {
  UserState& u = users_.at(static_cast<std::size_t>(user));
  close_pending(u, done);
  if (u.remaining == 0) return false;
  u.remaining -= 1;
  const SimTime earliest = done + think(u);
  out.ready = std::max(earliest, floor);
  out.user = user;
  out.trace = ++next_trace_;
  draw(u, out);
  u.pending = out;
  u.in_flight = true;
  // How much the window-edge clamp deferred this arrival beyond its natural
  // time — the cost of batched cross-shard exchange, in ticks.
  static thread_local obs::HistogramHandle defer("forest.mux.defer");
  defer.observe(out.ready - earliest);
  ++issued_;
  return true;
}

}  // namespace dyncon::workload
