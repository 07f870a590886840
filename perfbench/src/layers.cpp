#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "agent/durable.hpp"
#include "agent/whiteboard.hpp"
#include "core/centralized_controller.hpp"
#include "core/distributed_controller.hpp"
#include "core/distributed_iterated.hpp"
#include "core/package.hpp"
#include "forest/hibernate.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/crash.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/watchdog.hpp"
#include "sim/wire.hpp"
#include "util/thread_pool.hpp"
#include "workload/request_mux.hpp"
#include "workload/shapes.hpp"

namespace perfbench {

using namespace dyncon;

namespace {

constexpr int kTrials = 3;

/// Makes a loop's results observable so the optimiser keeps the loop.
void keep(std::uint64_t v) {
  static volatile std::uint64_t sink = 0;
  sink = sink + v;
}

/// Host cost of one operation of a loop.
struct Cost {
  double ns = 0.0;
  double allocs = 0.0;
};

/// Host time and allocations from construction to per_op().
class Stopwatch {
 public:
  Stopwatch() : a0_(allocs_now()), t0_(Clock::now()) {}
  [[nodiscard]] double ns() const {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0_)
        .count();
  }
  [[nodiscard]] std::uint64_t allocs() const { return allocs_now() - a0_; }
  [[nodiscard]] Cost per_op(std::uint64_t ops) const {
    const double n = static_cast<double>(ops != 0 ? ops : 1);
    return {ns() / n, static_cast<double>(allocs()) / n};
  }

 private:
  std::uint64_t a0_;
  Clock::time_point t0_;
};

/// The fastest of kTrials runs of `trial`, each of which times its own
/// loop (setup outside the stopwatch) and returns the per-op cost; the
/// fastest, like the workload's own fastest repetition it is compared
/// with.  The whole measurement is one span named after the layer.
template <typename Trial>
Cost measure(const char* span, Trial&& trial) {
  Span sp(span);
  Cost best;
  for (int i = 0; i < kTrials; ++i) {
    const Cost c = trial();
    if (i == 0 || c.ns < best.ns) best = c;
  }
  return best;
}

double count(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it != c.end() ? static_cast<double>(it->second) : 0.0;
}

/// Messages of one kind the workload transmitted (workloads.cpp keys them
/// by sim::msg_kind_name).
double kind_count(const Counters& c, sim::MsgKind k) {
  return count(c, std::string("kind.") + sim::msg_kind_name(k));
}

/// The workload's tree (distributed shapes: the controller's tree; forest
/// shapes: one tree of the forest), its node ids and their depths.
struct TreeSample {
  tree::DynamicTree tree;
  std::vector<NodeId> nodes;
  std::vector<std::uint64_t> depth;
};

void sample_tree(TreeSample& out, const Shape& s, std::uint64_t seed) {
  Rng rng(seed);
  if (s.family == Family::kForest) {
    forest::build_initial_topology(out.tree, rng, s.tree_size);
  } else {
    workload::build(out.tree, workload::Shape::kRandomAttach, s.nodes, rng);
  }
  out.nodes = out.tree.alive_nodes();
  for (NodeId v : out.nodes) out.depth.push_back(out.tree.depth(v));
}

/// Messages in the workload's kind mix (distributed: NetStats per kind,
/// with the channel's share of data frames wrapped as real frames; forest:
/// the exchange's per-completion AppMsg), fields drawn from its tree.
std::vector<sim::Message> wire_sample(const Shape& s, const Counters& c,
                                      const TreeSample& ts,
                                      std::uint64_t seed) {
  constexpr std::size_t kSample = 4096;
  Rng rng(seed ^ 0x77697265ULL);
  std::vector<sim::Message> out;
  out.reserve(kSample);
  if (s.family == Family::kForest) {
    for (std::size_t i = 0; i < kSample; ++i) {
      out.push_back(sim::Message::app_value(sim::AppTopic::kToken,
                                            rng.uniform(0, s.users - 1)));
    }
    return out;
  }
  const double agent = kind_count(c, sim::MsgKind::kAgent);
  const double reject = kind_count(c, sim::MsgKind::kReject);
  const double control = kind_count(c, sim::MsgKind::kControl);
  const double moves = kind_count(c, sim::MsgKind::kDataMove);
  const double app = kind_count(c, sim::MsgKind::kApp);
  const double acks = kind_count(c, sim::MsgKind::kChannel);
  const double total = agent + reject + control + moves + app + acks;
  const double framed = ratio(count(c, "channel.data_frames") +
                                  count(c, "channel.retransmits"),
                              total - acks);
  const std::uint64_t max_depth =
      *std::max_element(ts.depth.begin(), ts.depth.end());
  const auto level_cap =
      static_cast<std::uint64_t>(std::bit_width(max_depth + 1));
  for (std::size_t i = 0; i < kSample; ++i) {
    double x = rng.uniform01() * total;
    const NodeId v = ts.nodes[rng.index(ts.nodes.size())];
    std::optional<sim::Message> m;
    if ((x -= agent) < 0) {
      const std::uint64_t d = ts.depth[rng.index(ts.depth.size())];
      m = sim::Message::agent_hop(
          rng.uniform(0, s.requests), d, d + rng.uniform(0, level_cap),
          static_cast<std::uint32_t>(rng.uniform(0, level_cap)),
          static_cast<std::uint8_t>(rng.uniform(0, 6)), rng.chance(0.5));
    } else if ((x -= reject) < 0) {
      m = sim::Message::reject_wave();
    } else if ((x -= control) < 0) {
      m = sim::Message::control(sim::ControlTopic::kBroadcast, v);
    } else if ((x -= moves) < 0) {
      m = sim::Message::data_move(v);
    } else if ((x -= app) < 0) {
      m = sim::Message::app_value(sim::AppTopic::kReport, v);
    } else {
      out.push_back(sim::Message::channel_ack(rng.uniform(0, 1024)));
      continue;
    }
    if (rng.uniform01() < framed) {
      out.push_back(sim::Message::channel_data(rng.uniform(0, 1024), *m));
    } else {
      out.push_back(*m);
    }
  }
  return out;
}

// ---- sim.event_queue: schedule + step ----------------------------------------

/// Each fired event schedules its successor with a delay drawn from the
/// workload: forest service latency 1..4; fixed 1-tick links; uniform
/// 1..16 links with the channel's share of 512-tick retransmit timers.
Cost event_queue_cost(const Shape& s, const Counters& c, std::uint64_t seed) {
  Rng rng(seed ^ 0x71756575ULL);
  const double p_timer = ratio(
      count(c, "channel.data_frames") + count(c, "channel.retransmits"),
      count(c, "events"));
  std::vector<SimTime> delays(4096);
  for (SimTime& d : delays) {
    if (s.family == Family::kForest) {
      d = 1 + (rng.next() & 3);
    } else if (!s.faulty) {
      d = 1;
    } else {
      d = rng.uniform01() < p_timer ? 512 : rng.uniform(1, 16);
    }
  }
  return measure("layer.sim.event_queue", [&] {
    constexpr std::uint64_t kPending = 1024;
    constexpr std::uint64_t kOps = 1'000'000;
    struct Ctx {
      sim::EventQueue q;
      const std::vector<SimTime>* delays;
      std::uint64_t left = kOps;
      std::size_t next = 0;
      void fire() {
        if (left == 0) return;
        --left;
        const SimTime d = (*delays)[next++ & 4095];
        q.schedule_after(d, [this] { fire(); });
      }
    } ctx;
    ctx.delays = &delays;
    for (std::uint64_t i = 0; i < kPending; ++i) {
      ctx.q.schedule_after(delays[i & 4095], [&ctx] { ctx.fire(); });
    }
    const Stopwatch sw;
    const std::uint64_t fired = ctx.q.run();
    return sw.per_op(fired);
  });
}

// ---- sim.wire: encoded_bits / encode / decode --------------------------------

struct WireCost {
  double size_ns = 0.0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double sample_bits = 0.0;
};

WireCost wire_cost(const std::vector<sim::Message>& sample) {
  constexpr int kPasses = 64;
  const std::uint64_t ops = sample.size() * kPasses;
  WireCost w;
  std::uint64_t sink = 0;
  w.size_ns = measure("layer.sim.wire.size", [&] {
                const Stopwatch sw;
                for (int p = 0; p < kPasses; ++p) {
                  for (const sim::Message& m : sample) sink += m.encoded_bits();
                }
                return sw.per_op(ops);
              }).ns;
  w.encode_ns = measure("layer.sim.wire.encode", [&] {
                  const Stopwatch sw;
                  for (int p = 0; p < kPasses; ++p) {
                    for (const sim::Message& m : sample) {
                      sink += m.encode().bits;
                    }
                  }
                  return sw.per_op(ops);
                }).ns;
  std::vector<sim::Encoded> encoded;
  encoded.reserve(sample.size());
  for (const sim::Message& m : sample) encoded.push_back(m.encode());
  w.decode_ns = measure("layer.sim.wire.decode", [&] {
                  const Stopwatch sw;
                  for (int p = 0; p < kPasses; ++p) {
                    for (const sim::Encoded& e : encoded) {
                      sink += static_cast<std::uint64_t>(
                          sim::Message::decode(e).kind());
                    }
                  }
                  return sw.per_op(ops);
                }).ns;
  std::uint64_t bits = 0;
  for (const sim::Encoded& e : encoded) bits += e.bits;
  w.sample_bits = ratio(static_cast<double>(bits),
                        static_cast<double>(encoded.size()));
  keep(sink);
  return w;
}

// ---- sim.network: send -> deliver --------------------------------------------

struct NetworkCost {
  Cost send;             ///< one Network::send -> deliver, all layers
  double self_ns = 0.0;  ///< the same minus a bare queue event chain
};

/// A chain of sends over the workload's link delay: each delivery sends the
/// next protocol message of the sample between two tree nodes.  The same
/// chain built from plain EventQueue events prices what is not the
/// network's own work.
NetworkCost network_cost(const Shape& s,
                         const std::vector<sim::Message>& sample,
                         const TreeSample& ts, std::uint64_t seed) {
  constexpr std::uint64_t kSends = 500'000;
  std::vector<sim::Message> msgs;
  for (const sim::Message& m : sample) {
    if (m.kind() == sim::MsgKind::kChannel) {
      const auto& ch = m.as<sim::ChannelMsg>();
      if (ch.topic == sim::ChannelTopic::kData) {
        msgs.push_back(sim::Message::decode(ch.payload));
      }
    } else {
      msgs.push_back(m);
    }
  }
  const auto delay_kind =
      s.faulty ? sim::DelayKind::kUniform : sim::DelayKind::kFixed;
  NetworkCost out;
  out.send = measure("layer.sim.network", [&] {
    sim::EventQueue q;
    sim::Network net(q, sim::make_delay(delay_kind, seed));
    struct Ctx {
      sim::Network* net;
      const std::vector<sim::Message>* msgs;
      const std::vector<NodeId>* nodes;
      std::uint64_t left = kSends;
      std::size_t i = 0;
      void fire() {
        if (left == 0) return;
        --left;
        const sim::Message& m = (*msgs)[i % msgs->size()];
        const NodeId from = (*nodes)[i % nodes->size()];
        const NodeId to = (*nodes)[(i * 7 + 1) % nodes->size()];
        ++i;
        net->send(from, to, m, [this] { fire(); });
      }
    } ctx{&net, &msgs, &ts.nodes};
    const Stopwatch sw;
    ctx.fire();
    q.run();
    return sw.per_op(kSends);
  });
  const Cost bare = measure("layer.sim.network.bare_chain", [&] {
    sim::EventQueue q;
    const auto delay = sim::make_delay(delay_kind, seed);
    struct Ctx {
      sim::EventQueue* q;
      sim::DelayPolicy* delay;
      std::uint64_t left = kSends;
      void fire() {
        if (left == 0) return;
        --left;
        q->schedule_after(delay->delay(0, 1, left), [this] { fire(); });
      }
    } ctx{&q, delay.get()};
    const Stopwatch sw;
    ctx.fire();
    q.run();
    return sw.per_op(kSends);
  });
  out.self_ns = std::max(0.0, out.send.ns - bare.ns);
  return out;
}

// ---- sim.channel: reliable send -> deliver over the workload's faults ------------

struct ChannelCost {
  double ns_per_frame = 0.0;    ///< reliable send -> deliver, all layers
  double sends_per_frame = 0.0; ///< network sends each frame cost (frame,
                                ///< retransmits, acks)
};

ChannelCost channel_cost(const Shape& s,
                         const std::vector<sim::Message>& sample,
                         const TreeSample& ts, std::uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v : ts.nodes) {
    const NodeId p = ts.tree.parent(v);
    if (p != kNoNode) edges.emplace_back(v, p);
  }
  std::vector<sim::Message> msgs;
  for (const sim::Message& m : sample) {
    if (m.kind() == sim::MsgKind::kAgent) msgs.push_back(m);
  }
  constexpr std::uint64_t kFrames = 20'000;
  std::uint64_t sends = 0;
  const Cost cost = measure("layer.sim.channel", [&] {
    Rng rng(seed);
    sim::EventQueue q;
    sim::Network net(q, sim::make_delay(sim::DelayKind::kUniform,
                                        rng.split_seed()));
    sim::CrashSchedule sch(Rng(rng.split_seed()), 0.2, 512, 64);
    sch.set_limit(s.nodes);
    sch.set_immune(ts.tree.root());
    net.set_fault_policy(sim::make_crash_stack(
        sim::make_fault(sim::FaultKind::kChaos, rng.split_seed()),
        std::make_shared<const sim::CrashSchedule>(sch)));
    net.enable_reliability();
    struct Ctx {
      sim::Network* net;
      const std::vector<sim::Message>* msgs;
      const std::vector<std::pair<NodeId, NodeId>>* edges;
      void send(std::uint64_t i) {
        const auto& [a, b] = (*edges)[i % edges->size()];
        const bool up = (i & 1) != 0;
        net->send(up ? a : b, up ? b : a, (*msgs)[i % msgs->size()], [] {});
      }
    } ctx{&net, &msgs, &edges};
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      q.schedule_at(4 * i, [&ctx, i] { ctx.send(i); });
    }
    const Stopwatch sw;
    q.run();
    const Cost c = sw.per_op(kFrames);
    sends = net.stats().messages;
    return c;
  });
  return {cost.ns, ratio(static_cast<double>(sends), kFrames)};
}

// ---- agent.whiteboard: lock + unlock -----------------------------------------

Cost whiteboard_cost(const TreeSample& ts, std::uint64_t seed) {
  Rng rng(seed ^ 0x77627264ULL);
  std::vector<NodeId> order(1 << 16);
  for (NodeId& v : order) v = ts.nodes[rng.index(ts.nodes.size())];
  return measure("layer.agent.whiteboard", [&] {
    constexpr std::uint64_t kOps = 2'000'000;
    agent::WhiteboardManager wb;
    for (NodeId v : ts.nodes) {
      wb.lock(v, 0, kNoNode);
      (void)wb.unlock(v, 0);
    }
    std::uint64_t resumed = 0;
    const Stopwatch sw;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const NodeId v = order[i & 0xffff];
      wb.lock(v, i, kNoNode);
      resumed += wb.unlock(v, i).has_value();
    }
    const Cost cost = sw.per_op(kOps);
    keep(resumed);
    return cost;
  });
}

// ---- agent.durable: DurableStore::persist -----------------------------------

/// Boards as the controller journals them: locked, with a parked waiter as
/// often as the workload's lock waits per journal write.
Cost durable_cost(const Shape& s, const Counters& c, const TreeSample& ts,
                  std::uint64_t seed) {
  Rng rng(seed ^ 0x64757261ULL);
  const double p_wait =
      std::min(1.0, ratio(count(c, "agent.lock_waits"),
                          count(c, "recovery.snapshot_writes")));
  std::vector<agent::BoardSnapshot> boards(256);
  for (agent::BoardSnapshot& b : boards) {
    const NodeId v = ts.nodes[rng.index(ts.nodes.size())];
    b.locked = true;
    b.locked_by = rng.uniform(0, s.requests);
    b.down_child = v;
    if (rng.uniform01() < p_wait) {
      agent::ParkedAgent pa;
      pa.agent = b.locked_by + 1;
      pa.came_from = v;
      pa.origin = ts.nodes[rng.index(ts.nodes.size())];
      pa.distance = ts.depth[rng.index(ts.depth.size())];
      pa.phase = 1;
      pa.req_subject = pa.origin;
      b.queue.push_back(pa);
    }
  }
  std::vector<NodeId> order(1 << 14);
  for (NodeId& v : order) v = ts.nodes[rng.index(ts.nodes.size())];
  return measure("layer.agent.durable", [&] {
    constexpr std::uint64_t kOps = 200'000;
    agent::DurableStore store(
        [&boards](NodeId v) { return boards[v & 255]; });
    const Stopwatch sw;
    for (std::uint64_t i = 0; i < kOps; ++i) store.persist(order[i & 0x3fff]);
    return sw.per_op(kOps);
  });
}

// ---- core.package: PackageTable::move ----------------------------------------

/// Packages spread over the workload's tree move to random nodes, charged
/// the target's depth in hops (a delivery from the root).
Cost package_cost(const TreeSample& ts, std::uint64_t seed) {
  Rng rng(seed ^ 0x7061636bULL);
  constexpr std::size_t kPlan = 4096;
  std::vector<std::pair<NodeId, std::uint64_t>> plan(kPlan);
  for (auto& [node, hops] : plan) {
    const std::size_t i = rng.index(ts.nodes.size());
    node = ts.nodes[i];
    hops = ts.depth[i];
  }
  return measure("layer.core.package", [&] {
    constexpr std::uint64_t kMoves = 1'000'000;
    constexpr std::size_t kPackages = 1024;
    core::PackageTable pt;
    std::vector<core::PackageId> ids;
    for (std::size_t i = 0; i < kPackages; ++i) {
      ids.push_back(pt.create_mobile(plan[i].first, 0, 1));
    }
    const Stopwatch sw;
    for (std::uint64_t i = 0; i < kMoves; ++i) {
      const auto& [node, hops] = plan[i % kPlan];
      pt.move(ids[i % kPackages], node, hops);
    }
    return sw.per_op(kMoves);
  });
}

// ---- core.centralized_controller: request_* at forest::tree_params -------------

/// Requests the forest workload serves per tree instance (a hibernated
/// tree that wakes is the same instance).
std::uint64_t requests_per_tree(const Counters& c) {
  return static_cast<std::uint64_t>(std::max(
      1.0, std::round(ratio(count(c, "requests"), count(c, "tree_instances")))));
}

/// Fresh trees served the workload's op mix, each for as many requests as
/// the workload serves per tree instance (requests / builds).
Cost centralized_cost(const Shape& s, const Counters& c, std::uint64_t seed) {
  const forest::ForestConfig cfg = forest_config(s);
  const core::Params params = forest::tree_params(cfg);
  const std::uint64_t grow_cap = forest::resolved_grow_cap(cfg);
  const std::uint64_t per_tree = requests_per_tree(c);
  return measure("layer.core.centralized_controller", [&] {
    constexpr std::uint64_t kOps = 200'000;
    Rng rng(seed ^ 0x63656e74ULL);
    tree::DynamicTree t;
    std::optional<core::CentralizedController> ctrl;
    core::CentralizedController::Options opts;
    opts.track_domains = false;
    std::vector<NodeId> grown;
    double ns = 0.0;
    std::uint64_t allocs = 0, ops = 0;
    while (ops < kOps) {
      ctrl.reset();
      t.reset_to_root();
      grown.clear();
      Rng tree_rng(rng.split_seed());
      forest::build_initial_topology(t, tree_rng, s.tree_size);
      ctrl.emplace(t, params, opts);
      std::uint64_t grows = 0;
      const Stopwatch sw;
      for (std::uint64_t k = 0; k < per_tree; ++k, ++ops) {
        const double x = tree_rng.uniform01();
        const auto site =
            static_cast<NodeId>(tree_rng.index(static_cast<std::size_t>(s.tree_size)));
        // A capped grow or a shrink with nothing grown completes as moot
        // without reaching the controller, as in the engine.
        if (x < s.grow_fraction) {
          if (grows >= grow_cap) continue;
          const core::Result r = ctrl->request_add_leaf(site);
          if (r.granted()) {
            grown.push_back(r.new_node);
            ++grows;
          }
        } else if (x < s.grow_fraction + s.shrink_fraction) {
          if (grown.empty()) continue;
          if (ctrl->request_remove(grown.back()).granted()) grown.pop_back();
        } else {
          (void)ctrl->request_event(site);
        }
      }
      ns += sw.ns();
      allocs += sw.allocs();
    }
    return Cost{ns / static_cast<double>(ops),
                static_cast<double>(allocs) / static_cast<double>(ops)};
  });
}

// ---- core.distributed_controller: the synchronous part of submit ------------------

Cost distributed_submit_cost(const Shape& s, const TreeSample& ts,
                             std::uint64_t seed) {
  Rng rng(seed ^ 0x73756274ULL);
  std::vector<core::RequestSpec> specs(1 << 14);
  for (core::RequestSpec& sp : specs) {
    sp = {rng.chance(s.event_fraction) ? core::RequestSpec::Type::kEvent
                                       : core::RequestSpec::Type::kAddLeaf,
          ts.nodes[rng.index(ts.nodes.size())]};
  }
  const std::uint64_t M = s.requests;
  const std::uint64_t U = 4 * s.nodes + 4 * s.requests;
  return measure("layer.core.distributed_controller", [&] {
    constexpr std::uint64_t ops = 100'000;
    sim::EventQueue q;
    sim::Network net(q, sim::make_delay(sim::DelayKind::kFixed, seed));
    if (s.faulty) {
      net.set_fault_policy(sim::make_fault(sim::FaultKind::kChaos, seed));
      net.enable_reliability();
    }
    sim::Watchdog wd(q, 0);
    tree::DynamicTree t;
    Rng tree_rng(seed);
    workload::build(t, workload::Shape::kRandomAttach, s.nodes, tree_rng);
    std::uint64_t verdicts = 0;
    auto done = [&verdicts](const core::Result&) { ++verdicts; };
    Cost cost;
    if (s.faulty) {
      core::DistributedIterated::Options opts;
      opts.track_domains = false;
      opts.watchdog = &wd;
      opts.durability = agent::Durability::kDurable;
      opts.crash_redrives = 3;
      core::DistributedIterated ctrl(net, t, M, M / 5, U, opts);
      const Stopwatch sw;
      for (std::uint64_t i = 0; i < ops; ++i) {
        ctrl.submit(specs[i & 0x3fff], done);
      }
      cost = sw.per_op(ops);
    } else {
      core::DistributedController::Options opts;
      opts.track_domains = false;
      core::DistributedController ctrl(net, t, core::Params(M, M / 5, U),
                                       opts);
      const Stopwatch sw;
      for (std::uint64_t i = 0; i < ops; ++i) {
        ctrl.submit(specs[i & 0x3fff], done);
      }
      cost = sw.per_op(ops);
    }
    return cost;
  });
}

// ---- workload.request_mux: next_request ----------------------------------------

/// One full pass of the workload's request stream: every completion (at
/// ready + service time) asks the mux for that user's next request.
Cost mux_cost(const Shape& s, std::uint64_t seed) {
  const forest::ForestConfig cfg = forest_config(s);
  return measure("layer.workload.request_mux", [&] {
    obs::Registry reg;
    obs::ScopedMetrics scope(reg);
    workload::RequestMux mux(cfg.mux, seed);
    std::vector<workload::MuxRequest> live = mux.initial_requests();
    std::uint64_t calls = 0;
    double ns = 0.0;
    std::vector<workload::MuxRequest> next;
    next.reserve(live.size());
    while (!live.empty()) {
      next.clear();
      const Stopwatch sw;
      for (const workload::MuxRequest& r : live) {
        const SimTime done = r.ready + 2;
        const SimTime floor = (done / kWindow + 1) * kWindow;
        workload::MuxRequest out;
        if (mux.next_request(r.user, done, floor, out)) next.push_back(out);
      }
      ns += sw.ns();
      calls += live.size();
      live.swap(next);
    }
    return Cost{ns / static_cast<double>(calls), 0.0};
  });
}

// ---- util.thread_pool: for_each over empty bodies ----------------------------

Cost barrier_cost(const Shape& s) {
  return measure("layer.util.thread_pool", [&] {
    constexpr std::uint64_t kBarriers = 20'000;
    util::ThreadPool pool(s.shards);
    const Stopwatch sw;
    for (std::uint64_t i = 0; i < kBarriers; ++i) {
      pool.for_each(s.shards, [](std::uint64_t) {});
    }
    return sw.per_op(kBarriers);
  });
}

// ---- forest.hibernate: hibernate / wake / materialize -------------------------

struct HibernateCost {
  double hibernate_ns = 0.0;
  double wake_ns = 0.0;
  double materialize_ns = 0.0;
};

/// Trees served as many requests as the workload serves per tree instance
/// are hibernated (capture + encode), woken the way the engine wakes them
/// (decode, initial build replay, grown-node replay, controller restore),
/// and materialized anew (initial build + controller).
HibernateCost hibernate_cost(const Shape& s, const Counters& c,
                             std::uint64_t seed) {
  const forest::ForestConfig cfg = forest_config(s);
  const core::Params params = forest::tree_params(cfg);
  const std::uint64_t per_tree = requests_per_tree(c);
  core::CentralizedController::Options opts;
  opts.track_domains = false;
  constexpr std::uint64_t kTrees = 2000;
  HibernateCost h;
  Span sp("layer.forest.hibernate");
  std::vector<double> hib, wake, mat;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(seed ^ 0x6869626eULL);
    tree::DynamicTree t, t2;
    std::optional<core::CentralizedController> ctrl, ctrl2;
    forest::TreeImage img, img2;
    sim::Encoded enc;
    std::vector<NodeId> grown;
    double ns_h = 0, ns_w = 0, ns_m = 0;
    for (std::uint64_t i = 0; i < kTrees; ++i) {
      const std::uint64_t tree_seed = rng.split_seed();
      Rng tree_rng(tree_seed);
      ctrl.reset();
      t.reset_to_root();
      {
        const Stopwatch sw;
        forest::build_initial_topology(t, tree_rng, s.tree_size);
        ctrl.emplace(t, params, opts);
        ns_m += sw.ns();
      }
      grown.clear();
      for (std::uint64_t k = 0; k < per_tree; ++k) {
        const auto site = static_cast<NodeId>(
            tree_rng.index(static_cast<std::size_t>(s.tree_size)));
        if (tree_rng.uniform01() < s.grow_fraction) {
          const core::Result r = ctrl->request_add_leaf(site);
          if (r.granted()) grown.push_back(r.new_node);
        } else {
          (void)ctrl->request_event(site);
        }
      }
      {
        const Stopwatch sw;
        forest::capture_tree_image(img, t, &*ctrl, tree_rng, grown,
                                   grown.size());
        enc = forest::encode_tree_image(img, std::move(enc));
        ns_h += sw.ns();
      }
      ctrl2.reset();
      t2.reset_to_root();
      {
        const Stopwatch sw;
        forest::decode_tree_image(img2, enc);
        Rng build_rng(tree_seed);
        forest::build_initial_topology(t2, build_rng, s.tree_size);
        forest::replay_grown_nodes(t2, img2);
        ctrl2.emplace(t2, params, opts);
        ctrl2->restore_image(img2.ctrl);
        ns_w += sw.ns();
      }
    }
    const auto n = static_cast<double>(kTrees);
    hib.push_back(ns_h / n);
    wake.push_back(ns_w / n);
    mat.push_back(ns_m / n);
  }
  h.hibernate_ns = quantile(hib, 0.0);
  h.wake_ns = quantile(wake, 0.0);
  h.materialize_ns = quantile(mat, 0.0);
  return h;
}

}  // namespace

std::vector<Metric> layer_metrics(const Shape& s, std::uint64_t seed,
                                  const LayerInputs& in) {
  const Counters& c = in.counts;
  const bool forest = s.family == Family::kForest;
  const double requests = count(c, "requests");
  const double events = count(c, "events");
  const double timed_ns = in.timed_s * 1e9;
  // Layers inside a shard's window run on `shards` workers at once; their
  // summed cost over the wall time is divided by the shard count.
  const double parallel = forest ? static_cast<double>(s.shards) : 1.0;
  auto share = [&](double ns_per_op, double ops, double workers) {
    return ratio(ns_per_op * ops, timed_ns * workers);
  };

  TreeSample ts;
  sample_tree(ts, s, seed);
  const std::vector<sim::Message> sample = wire_sample(s, c, ts, seed);

  std::vector<Metric> out;
  double attributed = 0.0;
  auto add = [&out](const std::string& name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  auto add_share = [&](const std::string& layer, double v) {
    attributed += v;
    add(layer + ".share", v, "fraction");
  };

  // sim.event_queue
  const Cost q = event_queue_cost(s, c, seed);
  add("sim.event_queue.ns_per_op", q.ns, "ns");
  add("sim.event_queue.allocs_per_op", q.allocs, "count");
  add("sim.event_queue.events_per_request", ratio(events, requests), "count");
  add("sim.event_queue.events_per_sec", ratio(events, in.timed_s), "1/s");
  const double q_share = share(q.ns, events, parallel);
  add_share("sim.event_queue", q_share);

  // sim.wire: every message is sized once; channel frames also embed the
  // inner message's bytes; the forest sizes one AppMsg per completion.
  const WireCost w = wire_cost(sample);
  const double messages = forest ? requests : count(c, "messages");
  const double frames =
      count(c, "channel.data_frames") + count(c, "channel.retransmits");
  add("sim.wire.size_ns_per_msg", w.size_ns, "ns");
  add("sim.wire.encode_ns_per_msg", w.encode_ns, "ns");
  add("sim.wire.decode_ns_per_msg", w.decode_ns, "ns");
  add("sim.wire.bits_per_msg",
      forest ? w.sample_bits : ratio(count(c, "total_bits"), messages),
      "bits");
  add_share("sim.wire",
            share(w.size_ns, messages, 1.0) + share(w.encode_ns, frames, 1.0));

  // sim.network: self time, net of the queue event and the sizing each
  // send already counted above.
  const NetworkCost n =
      forest ? NetworkCost{} : network_cost(s, sample, ts, seed);
  add("sim.network.ns_per_send", n.send.ns, "ns");
  add("sim.network.allocs_per_send", n.send.allocs, "count");
  add("sim.network.sends_per_request",
      forest ? 0.0 : ratio(messages, requests), "count");
  add_share("sim.network",
            share(std::max(0.0, n.self_ns - w.size_ns), messages, 1.0));

  // sim.channel (+fault, crash): self time per first transmission, net of
  // the network sends (frame, acks, retransmits) it makes and of encoding
  // the inner message, both counted above.
  const double data_frames = count(c, "channel.data_frames");
  const double retransmits = count(c, "channel.retransmits");
  const double acks = count(c, "channel.acks");
  const bool channel = data_frames > 0;
  const ChannelCost ch =
      channel ? channel_cost(s, sample, ts, seed) : ChannelCost{};
  add("sim.channel.ns_per_frame", ch.ns_per_frame, "ns");
  add("sim.channel.retransmits_per_request", ratio(retransmits, requests),
      "count");
  add("sim.channel.acks_per_request", ratio(acks, requests), "count");
  add("sim.channel.first_try_ratio",
      channel ? std::max(0.0, 1.0 - ratio(retransmits, data_frames)) : 0.0,
      "fraction");
  add_share("sim.channel",
            share(std::max(0.0, ch.ns_per_frame -
                                    ch.sends_per_frame * n.send.ns -
                                    w.encode_ns),
                  data_frames, 1.0));

  // agent.whiteboard: an agent locks its origin and every node it climbs
  // (~1/4 of its hops: up, down with the package, back up, down
  // unlocking), so lock/unlock pairs ~ requests + hops / 4.
  const double hops = count(c, "agent.hops");
  const Cost wb = forest ? Cost{} : whiteboard_cost(ts, seed);
  add("agent.whiteboard.ns_per_lock_unlock", wb.ns, "ns");
  add("agent.whiteboard.lock_waits_per_request",
      ratio(count(c, "agent.lock_waits"), requests), "count");
  add_share("agent.whiteboard",
            forest ? 0.0 : share(wb.ns, requests + hops / 4.0, 1.0));

  // agent.durable
  const double writes = count(c, "recovery.snapshot_writes");
  const Cost du = writes > 0 ? durable_cost(s, c, ts, seed) : Cost{};
  add("agent.durable.ns_per_persist", du.ns, "ns");
  add("agent.durable.writes_per_request", ratio(writes, requests), "count");
  add("agent.durable.bits_per_write",
      ratio(count(c, "recovery.snapshot_bits"), writes), "bits");
  add_share("agent.durable", share(du.ns, writes, 1.0));

  // core.package: every mobile package is made by a root creation or a
  // split, and a root-made one is moved (or carried) to its requester
  // once, so moves ~ package.created - package.splits.
  const double splits = count(c, "package.splits");
  const double package_moves = count(c, "package.created") - splits;
  const Cost pk = package_cost(ts, seed);
  add("core.package.ns_per_move", pk.ns, "ns");
  add("core.package.moves_per_request", ratio(count(c, "moves.total"), requests),
      "count");
  add("core.package.splits_per_request", ratio(splits, requests), "count");
  const double package_share = share(pk.ns, package_moves, parallel);
  add_share("core.package", package_share);

  // core.centralized_controller (forest trees), net of its package steps.
  const Cost cc = forest ? centralized_cost(s, c, seed) : Cost{};
  add("core.centralized_controller.ns_per_request", cc.ns, "ns");
  add("core.centralized_controller.allocs_per_request", cc.allocs, "count");
  add("core.centralized_controller.filler_steps_per_request",
      forest ? ratio(count(c, "filler_search.steps"), requests) : 0.0,
      "count");
  add_share("core.centralized_controller",
            forest ? std::max(0.0, share(cc.ns, requests, parallel) -
                                       package_share)
                   : 0.0);

  // core.distributed_controller
  const Cost dc = forest ? Cost{} : distributed_submit_cost(s, ts, seed);
  add("core.distributed_controller.ns_per_submit", dc.ns, "ns");
  add("core.distributed_controller.hops_per_request", ratio(hops, requests),
      "count");
  add_share("core.distributed_controller", share(dc.ns, requests, 1.0));

  // workload.request_mux: serial, once per completion.
  const Cost mx = forest ? mux_cost(s, seed) : Cost{};
  add("workload.request_mux.ns_per_next_request", mx.ns, "ns");
  const double mux_share = share(mx.ns, requests, 1.0);
  add_share("workload.request_mux", mux_share);

  // util.thread_pool: one barrier per window (a 1-shard engine runs its
  // window inline, with no pool).
  const double windows = count(c, "windows");
  const bool pooled = forest && s.shards > 1;
  const Cost bp = pooled ? barrier_cost(s) : Cost{};
  add("util.thread_pool.ns_per_barrier", bp.ns, "ns");
  const double pool_share = pooled ? share(bp.ns, windows, 1.0) : 0.0;
  add_share("util.thread_pool", pool_share);

  // forest.hibernate
  const double hibernations = count(c, "hibernations");
  const double wakes = count(c, "wakes");
  const double builds = count(c, "builds");
  const HibernateCost hc = forest ? hibernate_cost(s, c, seed) : HibernateCost{};
  add("forest.hibernate.ns_per_hibernate", hc.hibernate_ns, "ns");
  add("forest.hibernate.ns_per_wake", hc.wake_ns, "ns");
  add("forest.hibernate.ns_per_materialize", hc.materialize_ns, "ns");
  add("forest.hibernate.hibernations_per_request",
      ratio(hibernations, requests), "count");
  add("forest.hibernate.wakes_per_request", ratio(wakes, requests), "count");
  add("forest.hibernate.builds_per_request", ratio(builds, requests), "count");
  add("forest.hibernate.bits_per_image",
      ratio(count(c, "hibernate_bits"), hibernations), "bits");
  const double hibernate_share =
      share(hc.hibernate_ns, hibernations, parallel) +
      share(hc.wake_ns, wakes, parallel) +
      share(hc.materialize_ns, builds, parallel);
  add_share("forest.hibernate", hibernate_share);

  // forest: the engine alone (Service::kEcho over the same workload), net
  // of the queue, mux, barrier, sizing and residency work it contains.
  double echo_p50 = 0.0, echo_share = 0.0;
  if (forest) {
    Span sp("layer.forest.echo");
    std::vector<double> timed, p50s;
    for (int i = 0; i < kTrials; ++i) {
      const RepResult echo = run_rep(s, seed, /*echo=*/true);
      timed.push_back(echo.timed_s);
      p50s.push_back(median(echo.window_ms));
    }
    echo_p50 = quantile(p50s, 0.0);
    echo_share = std::max(
        0.0, ratio(quantile(timed, 0.0), in.timed_s) - q_share - mux_share -
                 pool_share - share(w.size_ns, requests, 1.0) -
                 hibernate_share);
  }
  add("forest.echo_window_ms_p50", echo_p50, "ms");
  add("forest.requests_per_window", forest ? ratio(requests, windows) : 0.0,
      "count");
  add("forest.cross_shard_share",
      ratio(count(c, "cross_shard"), count(c, "handoffs")), "fraction");
  add_share("forest", echo_share);

  // Whole program.
  add("allocs_per_request", in.allocs_per_request, "count");
  add("unattributed.share", 1.0 - attributed, "fraction");
  add("trace_overhead", in.trace_overhead, "fraction");
  return out;
}

}  // namespace perfbench
