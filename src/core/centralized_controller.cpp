#include "core/centralized_controller.hpp"

#include <utility>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace dyncon::core {

CentralizedController::CentralizedController(tree::DynamicTree& tree,
                                             Params params, Options options)
    : tree_(tree),
      params_(params),
      options_(std::move(options)),
      storage_(params.M()),
      storage_serials_(options_.serials) {
  DYNCON_REQUIRE(
      storage_serials_.empty() || storage_serials_.size() == params.M(),
      "serial interval must cover exactly M permits");
  if (options_.track_domains) {
    domains_ = std::make_unique<DomainTracker>(tree_, params_, packages_);
    tree_.add_observer(domains_.get());
  }
}

CentralizedController::~CentralizedController() {
  if (domains_) tree_.remove_observer(domains_.get());
}

Result CentralizedController::request_event(NodeId u) {
  return handle(u, EventSpec{EventSpec::Type::kNone, kNoNode});
}

Result CentralizedController::request_add_leaf(NodeId parent) {
  DYNCON_REQUIRE(tree_.alive(parent), "add_leaf: parent not alive");
  // "A request to add a node arrives at the node's parent to be."
  return handle(parent, EventSpec{EventSpec::Type::kAddLeaf, parent});
}

Result CentralizedController::request_add_internal_above(NodeId child) {
  DYNCON_REQUIRE(tree_.alive(child), "add_internal: child not alive");
  DYNCON_REQUIRE(child != tree_.root(), "cannot insert above the root");
  const NodeId parent = tree_.parent(child);
  return handle(parent, EventSpec{EventSpec::Type::kAddInternal, child});
}

Result CentralizedController::request_remove(NodeId v) {
  DYNCON_REQUIRE(tree_.alive(v), "remove: node not alive");
  DYNCON_REQUIRE(v != tree_.root(), "the root is never deleted");
  // "A request to delete a node u arrives at u."
  return handle(v, EventSpec{EventSpec::Type::kRemove, v});
}

void CentralizedController::submit(const RequestSpec& spec,
                                   BaseController::Callback done) {
  DYNCON_REQUIRE(static_cast<bool>(done), "null completion callback");
  switch (spec.type) {
    case RequestSpec::Type::kEvent:
      return done(request_event(spec.subject));
    case RequestSpec::Type::kAddLeaf:
      return done(request_add_leaf(spec.subject));
    case RequestSpec::Type::kAddInternal:
      return done(request_add_internal_above(spec.subject));
    case RequestSpec::Type::kRemove:
      return done(request_remove(spec.subject));
  }
}

std::uint64_t CentralizedController::cost() const {
  return packages_.move_complexity();
}

std::uint64_t CentralizedController::unused_permits() const {
  return storage_ + packages_.permits_in_packages();
}

void CentralizedController::clear_data_structure() {
  std::uint64_t reclaimed = 0;
  for (PackageId p : packages_.all_alive()) {
    const Package& pkg = packages_.get(p);
    if (pkg.kind != PackageKind::kReject) reclaimed += pkg.size;
    if (domains_) domains_->drop(p);
    packages_.cancel(p);
  }
  storage_ += reclaimed;
  storage_serials_ = Interval{};  // serials are not reconstructed
}

void CentralizedController::extract_image(Image& out) const {
  DYNCON_REQUIRE(storage_serials_.empty() && options_.serials.empty(),
                 "extract_image: serial-tracking controllers not supported");
  DYNCON_REQUIRE(domains_ == nullptr,
                 "extract_image: domain-tracking controllers not supported");
  DYNCON_REQUIRE(!options_.on_pass_down,
                 "extract_image: on_pass_down hook not supported");
  out.storage = storage_;
  out.granted = granted_;
  out.rejects = rejects_;
  out.wave = wave_;
  out.exhausted = exhausted_;
  packages_.extract_image(out.packages);
}

void CentralizedController::restore_image(const Image& img) {
  DYNCON_REQUIRE(granted_ == 0 && rejects_ == 0 && !wave_ && !exhausted_ &&
                     packages_.move_complexity() == 0,
                 "restore_image onto a used controller");
  DYNCON_REQUIRE(domains_ == nullptr && storage_serials_.empty(),
                 "restore_image: tracked controllers not supported");
  storage_ = img.storage;
  granted_ = img.granted;
  rejects_ = img.rejects;
  wave_ = img.wave;
  exhausted_ = img.exhausted;
  packages_.restore_image(img.packages);
}

void CentralizedController::reset() {
  DYNCON_REQUIRE(domains_ == nullptr,
                 "reset: domain-tracking controllers not supported");
  packages_.clear();
  storage_ = params_.M();
  storage_serials_ = options_.serials;
  granted_ = 0;
  rejects_ = 0;
  wave_ = false;
  exhausted_ = false;
  path_.clear();
}

Result CentralizedController::handle(NodeId u, const EventSpec& ev) {
  obs::SpanSink* sink = obs::spans();
  if (sink == nullptr) return handle_impl(u, ev);  // the one-branch path
  const Result res = handle_impl(u, ev);
  // The centralized controller is synchronous — the whole operation is one
  // instant of virtual time, stamped by whoever drives it (obs::span_now).
  const obs::SpanContext ctx = obs::current_span();
  obs::Span s;
  s.trace = ctx.trace != obs::kNoTrace ? ctx.trace : sink->new_trace();
  s.id = sink->open(s.trace);
  s.parent = ctx.trace != obs::kNoTrace ? ctx.span : obs::kNoSpan;
  s.kind = obs::SpanKind::kOp;
  s.op = static_cast<std::uint8_t>(res.outcome);
  s.label = outcome_name(res.outcome);
  s.node = u;
  s.begin = obs::span_now();
  s.end = s.begin;
  sink->emit(s);
  return res;
}

Result CentralizedController::handle_impl(NodeId u, const EventSpec& ev) {
  DYNCON_REQUIRE(tree_.alive(u), "request at dead node");

  // Step 1: a reject package at u rejects immediately.
  if (packages_.has_reject(u)) {
    ++rejects_;
    static thread_local obs::CounterHandle rejected("permits.rejected");
    rejected.add();
    obs::emit(obs::TraceEvent{obs::EventKind::kRequestRejected, 0, u, 0, 0});
    return Result{Outcome::kRejected};
  }
  if (exhausted_ && options_.mode == Mode::kExhaustSignal) {
    static thread_local obs::CounterHandle exhausted_c("requests.exhausted");
    exhausted_c.add();
    return Result{Outcome::kExhausted};
  }

  // Step 2: a static package at u grants immediately.
  if (PackageId st = packages_.find_static(u); st != kNoPackage) {
    return grant_from_static(st, u, ev);
  }

  // Step 3: climb from u to the root looking for the closest filler node.
  // The filler windows of distinct levels partition the distances, so at
  // hop distance d only a mobile package of level window(d) qualifies.
  path_.clear();  // path_[i] = ancestor of u at distance i
  path_.push_back(u);
  std::uint64_t d = 0;
  NodeId w = u;
  for (;;) {
    const std::uint32_t lvl = params_.creation_level(d);
    DYNCON_INVARIANT(params_.in_filler_window(lvl, d),
                     "window/creation level mismatch");
    if (PackageId p = packages_.find_mobile_of_level(w, lvl);
        p != kNoPackage) {
      static thread_local obs::CounterHandle steps("filler_search.steps");
      steps.add(d);
      return distribute_and_grant(p, lvl, d, u, ev);
    }
    if (w == tree_.root()) break;
    w = tree_.parent(w);
    path_.push_back(w);
    ++d;
  }
  static thread_local obs::CounterHandle steps("filler_search.steps");
  steps.add(d);

  // Step 3b: no filler; create a package at the root (or give up).
  const std::uint32_t j = params_.creation_level(d);
  const std::uint64_t need = params_.mobile_size(j);
  if (storage_ < need) {
    if (options_.mode == Mode::kExhaustSignal) {
      exhausted_ = true;
      static thread_local obs::CounterHandle exhausted_c("requests.exhausted");
      exhausted_c.add();
      obs::emit(obs::TraceEvent{obs::EventKind::kRequestExhausted, 0, u, 0, 0});
      return Result{Outcome::kExhausted};
    }
    start_reject_wave();
    ++rejects_;
    static thread_local obs::CounterHandle rejected("permits.rejected");
    rejected.add();
    obs::emit(obs::TraceEvent{obs::EventKind::kRequestRejected, 0, u, 0, 0});
    return Result{Outcome::kRejected};
  }
  Interval serials;
  if (!storage_serials_.empty()) serials = storage_serials_.take_low(need);
  storage_ -= need;
  const PackageId p = packages_.create_mobile(tree_.root(), j, need, serials);
  return distribute_and_grant(p, j, d, u, ev);
}

Result CentralizedController::grant_from_static(PackageId st, NodeId u,
                                                const EventSpec& ev) {
  Result res{Outcome::kGranted};
  res.serial = packages_.consume_one(st);
  ++granted_;
  static thread_local obs::CounterHandle granted("permits.granted");
  granted.add();
  obs::emit(obs::TraceEvent{obs::EventKind::kPermitGranted, 0, u,
                            res.serial.value_or(~0ULL), storage_});
  apply_event(u, ev, res);
  return res;
}

void CentralizedController::apply_event(NodeId u, const EventSpec& ev,
                                        Result& res) {
  switch (ev.type) {
    case EventSpec::Type::kNone:
      return;
    case EventSpec::Type::kAddLeaf:
      res.new_node = tree_.add_leaf(ev.subject);
      obs::emit(obs::TraceEvent{obs::EventKind::kLinkAdded, 0, res.new_node,
                                ev.subject, 0});
      return;
    case EventSpec::Type::kAddInternal:
      res.new_node = tree_.add_internal_above(ev.subject);
      obs::emit(obs::TraceEvent{obs::EventKind::kLinkAdded, 0, res.new_node,
                                tree_.parent(res.new_node), 0});
      return;
    case EventSpec::Type::kRemove: {
      DYNCON_INVARIANT(ev.subject == u, "remove request arrives at subject");
      // Graceful deletion: all packages of u move to its parent in one
      // message before u disappears (paper item 2, first bullet).
      packages_.move_all(u, tree_.parent(u));
      obs::emit(obs::TraceEvent{obs::EventKind::kLinkRemoved, 0, u,
                                tree_.parent(u), 0});
      tree_.remove_node(u);
      return;
    }
  }
}

void CentralizedController::start_reject_wave() {
  DYNCON_INVARIANT(!wave_, "reject wave started twice");
  wave_ = true;
  exhausted_ = true;
  // A reject package is placed at every node by splitting and moving: one
  // delivery per alive node.
  const auto nodes = tree_.alive_nodes();
  for (NodeId v : nodes) packages_.create_reject(v);
  packages_.charge_moves(nodes.size());
  obs::count("wave.count");
  obs::emit(obs::TraceEvent{obs::EventKind::kWaveStart, 0, tree_.root(),
                            nodes.size(), 0});
}

Result CentralizedController::distribute_and_grant(PackageId p,
                                                   std::uint32_t j,
                                                   std::uint64_t dist,
                                                   NodeId u,
                                                   const EventSpec& ev) {
  const std::vector<NodeId>& path = path_;
  DYNCON_INVARIANT(path.size() == dist + 1 && path[dist] == packages_.get(p).host,
                   "path/host mismatch");
  PackageId cur = p;
  std::uint64_t cur_pos = dist;
  if (domains_) domains_->drop(cur);  // split/static-conversion cancels it

  const auto note_pass_down = [&](std::uint64_t from_pos,
                                  std::uint64_t to_pos,
                                  std::uint64_t permits) {
    if (!options_.on_pass_down) return;
    for (std::uint64_t pos = to_pos; pos < from_pos; ++pos) {
      options_.on_pass_down(path[pos], permits);
    }
  };

  for (std::uint32_t k = j; k >= 1; --k) {
    // Move the level-k package to u_{k-1} and split it there.
    const std::uint64_t uk_pos = params_.uk_distance(k - 1);
    DYNCON_INVARIANT(uk_pos < cur_pos, "u_{k-1} not strictly below host");
    note_pass_down(cur_pos, uk_pos, packages_.get(cur).size);
    packages_.move(cur, path[uk_pos], cur_pos - uk_pos);
    auto [stay, go] = packages_.split_mobile(cur);
    // `stay` (level k-1) remains at u_{k-1}; its domain is the
    // 2^(k-2)*psi nodes immediately below u_{k-1} on the path toward u.
    if (domains_) {
      const std::uint64_t dsize = params_.domain_size(k - 1);
      DYNCON_INVARIANT(dsize <= uk_pos, "domain would overrun the path");
      std::vector<NodeId> dom;
      dom.reserve(dsize);
      for (std::uint64_t i = 1; i <= dsize; ++i) {
        dom.push_back(path[uk_pos - i]);
      }
      domains_->assign(stay, std::move(dom));
    }
    cur = go;
    cur_pos = uk_pos;
  }

  // `cur` is now a level-0 package; deliver it to u and make it static.
  note_pass_down(cur_pos, 0, packages_.get(cur).size);
  packages_.move(cur, u, cur_pos);
  packages_.make_static(cur);
  return grant_from_static(cur, u, ev);
}

}  // namespace dyncon::core
