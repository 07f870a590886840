#include "core/package.hpp"

#include <tuple>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dyncon::core {

namespace {
constexpr std::uint64_t kSlotMask = 0xffffffffULL;
constexpr std::uint64_t kGeneration = std::uint64_t{1} << 32;
}  // namespace

PackageId PackageTable::HostView::iterator::operator*() const {
  return (*slots_)[slot_].pkg.id;
}

PackageTable::HostView::iterator&
PackageTable::HostView::iterator::operator++() {
  slot_ = (*slots_)[slot_].next;
  return *this;
}

std::size_t PackageTable::HostView::size() const {
  std::size_t n = 0;
  for (std::uint32_t s = head_; s != kNil; s = (*slots_)[s].next) ++n;
  return n;
}

PackageId PackageTable::HostView::front() const {
  DYNCON_REQUIRE(!empty(), "front() of an empty host");
  return (*slots_)[head_].pkg.id;
}

PackageId PackageTable::create_mobile(NodeId host, std::uint32_t level,
                                      std::uint64_t size, Interval serials) {
  DYNCON_REQUIRE(serials.empty() || serials.size() == size,
                 "serial interval size must match package size");
  const PackageId id =
      emplace(PackageKind::kMobile, host, size, level, serials);
  static thread_local obs::CounterHandle created("package.created");
  created.add();
  return id;
}

PackageId PackageTable::create_static(NodeId host, std::uint64_t size,
                                      Interval serials) {
  DYNCON_REQUIRE(size >= 1, "static package must hold >= 1 permit");
  DYNCON_REQUIRE(serials.empty() || serials.size() == size,
                 "serial interval size must match package size");
  return emplace(PackageKind::kStatic, host, size, 0, serials);
}

PackageId PackageTable::create_reject(NodeId host) {
  return emplace(PackageKind::kReject, host, 0, 0, Interval{});
}

void PackageTable::move(PackageId p, NodeId new_host, std::uint64_t hops) {
  const std::uint32_t s = slot_of(p);
  ensure_host(new_host);
  detach(s);
  attach(s, new_host);
  moves_ += hops;
  // Same name as move_all()'s handle on purpose (both feed "moves.total");
  // each function-local static binds its own epoch, so neither can observe
  // the other's stale slot.  The old `moves_batch` name suggested a separate
  // counter and hid that this is the same registry row.
  static thread_local obs::CounterHandle moves("moves.total");
  moves.add(hops);
}

void PackageTable::pick_up(PackageId p) {
  const std::uint32_t s = slot_of(p);
  Package& pkg = slots_[s].pkg;
  DYNCON_REQUIRE(pkg.kind == PackageKind::kMobile, "pick_up of non-mobile");
  DYNCON_REQUIRE(pkg.host != kNoNode, "package already carried");
  detach(s);
  pkg.host = kNoNode;
}

void PackageTable::put_down(PackageId p, NodeId node) {
  const std::uint32_t s = slot_of(p);
  DYNCON_REQUIRE(slots_[s].pkg.host == kNoNode,
                 "put_down of a hosted package");
  ensure_host(node);
  attach(s, node);
}

std::size_t PackageTable::move_all(NodeId node, NodeId parent) {
  const std::uint32_t first = head_of(node);
  if (first == kNil) return 0;
  ensure_host(parent);
  std::size_t moved = 0;
  for (std::uint32_t s = first; s != kNil; s = slots_[s].next) {
    slots_[s].pkg.host = parent;
    ++moved;
  }
  if (parent != node) {
    // Splice the whole list onto parent's tail: the order moving each
    // package in turn would give, without unlinking them one by one.
    slots_[first].prev = tail_[parent];
    if (tail_[parent] == kNil) {
      head_[parent] = first;
    } else {
      slots_[tail_[parent]].next = first;
    }
    tail_[parent] = tail_[node];
    head_[node] = kNil;
    tail_[node] = kNil;
  }
  moves_ += 1;  // one message carries the whole set (paper §2.2)
  static thread_local obs::CounterHandle moves("moves.total");
  moves.add();
  return moved;
}

std::pair<PackageId, PackageId> PackageTable::split_mobile(PackageId p) {
  const Package pkg = get(p);  // copy before cancel
  DYNCON_REQUIRE(pkg.kind == PackageKind::kMobile, "split of non-mobile");
  DYNCON_REQUIRE(pkg.level >= 1, "split of level-0 package");
  DYNCON_INVARIANT(pkg.size % 2 == 0, "mobile size not even");
  Interval lo, hi;
  if (!pkg.serials.empty()) std::tie(lo, hi) = pkg.serials.split_half();
  cancel(p);
  const PackageId a =
      create_mobile(pkg.host, pkg.level - 1, pkg.size / 2, lo);
  const PackageId b =
      create_mobile(pkg.host, pkg.level - 1, pkg.size / 2, hi);
  static thread_local obs::CounterHandle splits("package.splits");
  splits.add();
  obs::emit(obs::TraceEvent{obs::EventKind::kPackageSplit, 0, pkg.host,
                            pkg.level, pkg.size / 2});
  return {a, b};
}

void PackageTable::make_static(PackageId p) {
  Package& pkg = mut(p);
  DYNCON_REQUIRE(pkg.kind == PackageKind::kMobile && pkg.level == 0,
                 "only level-0 mobile packages become static");
  pkg.kind = PackageKind::kStatic;
}

std::optional<std::uint64_t> PackageTable::consume_one(PackageId p) {
  Package& pkg = mut(p);
  DYNCON_REQUIRE(pkg.kind == PackageKind::kStatic, "consume from non-static");
  DYNCON_INVARIANT(pkg.size >= 1, "empty static package still alive");
  std::optional<std::uint64_t> serial;
  if (!pkg.serials.empty()) serial = pkg.serials.take_one();
  pkg.size -= 1;
  if (pkg.size == 0) cancel(p);
  return serial;
}

void PackageTable::cancel(PackageId p) {
  const std::uint32_t s = slot_of(p);
  Slot& slot = slots_[s];
  if (slot.pkg.host != kNoNode) detach(s);
  slot.pkg.alive = false;
  slot.pkg.id += kGeneration;  // the next package in this slot gets a new id
  slot.next = free_head_;
  free_head_ = s;
  --alive_;
}

bool PackageTable::alive(PackageId p) const {
  const std::uint64_t s = p & kSlotMask;
  return s < slots_.size() && slots_[s].pkg.alive && slots_[s].pkg.id == p;
}

const Package& PackageTable::get(PackageId p) const {
  return slots_[slot_of(p)].pkg;
}

std::uint32_t PackageTable::slot_of(PackageId p) const {
  const std::uint64_t s = p & kSlotMask;
  DYNCON_REQUIRE(s < slots_.size(), "unknown package id");
  const Package& pkg = slots_[s].pkg;
  DYNCON_REQUIRE(pkg.alive && pkg.id == p, "access to dead package");
  return static_cast<std::uint32_t>(s);
}

bool PackageTable::has_reject(NodeId node) const {
  for (std::uint32_t s = head_of(node); s != kNil; s = slots_[s].next) {
    if (slots_[s].pkg.kind == PackageKind::kReject) return true;
  }
  return false;
}

PackageId PackageTable::find_static(NodeId node) const {
  for (std::uint32_t s = head_of(node); s != kNil; s = slots_[s].next) {
    if (slots_[s].pkg.kind == PackageKind::kStatic) return slots_[s].pkg.id;
  }
  return kNoPackage;
}

PackageId PackageTable::find_mobile_of_level(NodeId node,
                                             std::uint32_t level) const {
  for (std::uint32_t s = head_of(node); s != kNil; s = slots_[s].next) {
    const Package& pkg = slots_[s].pkg;
    if (pkg.kind == PackageKind::kMobile && pkg.level == level) return pkg.id;
  }
  return kNoPackage;
}

std::vector<PackageId> PackageTable::all_alive() const {
  std::vector<PackageId> out;
  for (const Slot& slot : slots_) {
    if (slot.pkg.alive) out.push_back(slot.pkg.id);
  }
  return out;
}

std::uint64_t PackageTable::permits_in_packages() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    const Package& pkg = slot.pkg;
    if (pkg.alive && pkg.kind != PackageKind::kReject) total += pkg.size;
  }
  return total;
}

void PackageTable::extract_image(Image& out) const {
  out.moves = moves_;
  out.alive.clear();
  // A forest tree between requests usually holds no package at all.
  for (NodeId host = 0; alive_ != 0 && host < head_.size(); ++host) {
    for (std::uint32_t s = head_[host]; s != kNil; s = slots_[s].next) {
      const Package& pkg = slots_[s].pkg;
      DYNCON_REQUIRE(pkg.serials.empty(),
                     "extract_image: serial-tracking packages not supported");
      out.alive.push_back(Record{pkg.kind, host, pkg.size, pkg.level});
    }
  }
  // The host lists hold exactly the hosted packages; an alive package in
  // none of them rides in an agent's Bag.
  DYNCON_REQUIRE(alive_ == out.alive.size(),
                 "extract_image: carried packages not supported");
}

void PackageTable::restore_image(const Image& img) {
  DYNCON_REQUIRE(slots_.empty() && moves_ == 0,
                 "restore_image into a non-fresh table");
  slots_.reserve(img.alive.size());
  for (const Record& rec : img.alive) {
    emplace(rec.kind, rec.host, rec.size, rec.level, Interval{});
  }
  moves_ = img.moves;
}

std::uint64_t PackageTable::approx_bytes() const {
  return slots_.capacity() * sizeof(Slot) +
         (head_.capacity() + tail_.capacity()) * sizeof(std::uint32_t);
}

PackageId PackageTable::emplace(PackageKind kind, NodeId host,
                                std::uint64_t size, std::uint32_t level,
                                Interval serials) {
  ensure_host(host);
  std::uint32_t s = free_head_;
  if (s != kNil) {
    free_head_ = slots_[s].next;
  } else {
    DYNCON_REQUIRE(slots_.size() < kNil, "package slot space exhausted");
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back().pkg.id = s;  // generation 0
  }
  Package& pkg = slots_[s].pkg;
  pkg = Package{pkg.id, host, size, serials, level, kind, true};
  attach(s, host);
  ++alive_;
  return pkg.id;
}

void PackageTable::ensure_host(NodeId host) {
  DYNCON_REQUIRE(host < kNil, "package host must be a tree node id");
  if (host >= head_.size()) {
    head_.resize(static_cast<std::size_t>(host) + 1, kNil);
    tail_.resize(static_cast<std::size_t>(host) + 1, kNil);
  }
}

void PackageTable::attach(std::uint32_t s, NodeId host) {
  Slot& slot = slots_[s];
  slot.pkg.host = host;
  slot.prev = tail_[host];
  slot.next = kNil;
  if (slot.prev == kNil) {
    head_[host] = s;
  } else {
    slots_[slot.prev].next = s;
  }
  tail_[host] = s;
}

void PackageTable::detach(std::uint32_t s) {
  Slot& slot = slots_[s];
  const NodeId host = slot.pkg.host;
  DYNCON_INVARIANT(host < head_.size(), "package host index missing");
  if (slot.prev == kNil) {
    head_[host] = slot.next;
  } else {
    slots_[slot.prev].next = slot.next;
  }
  if (slot.next == kNil) {
    tail_[host] = slot.prev;
  } else {
    slots_[slot.next].prev = slot.prev;
  }
  slot.prev = kNil;
  slot.next = kNil;
}

}  // namespace dyncon::core
