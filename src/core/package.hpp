#pragma once

// Permit/reject packages (paper §3.1).
//
// Packages are the only carriers of permits and rejects:
//
//   * a MOBILE package of level i holds exactly 2^i * phi permits and is
//     what the filler search looks for;
//   * a STATIC package holds 1..phi permits and can only grant requests at
//     its host node;
//   * a REJECT package stands for infinitely many rejects.
//
// Splitting a mobile package of level i >= 1 yields two level-(i-1)
// packages; a level-0 mobile package becomes static when delivered to the
// requesting node.  (The paper folds the latter into its description of the
// level-1 split; the two formulations produce identical states.)
//
// `PackageTable` owns every package of one controller instance and is the
// single point of truth for the paper's *move complexity*: every package
// move goes through it and is charged its hop distance; a graceful-deletion
// handoff (all packages of a node to its parent in one message) is charged
// one move, exactly as in Lemma 3.3's accounting.
//
// Storage is bounded by the packages alive now, not by the packages ever
// created (Claim 4.8 has no term for past requests).  Packages live in a
// slot vector recycled through a free list, so the slot count never
// exceeds the peak number of alive packages.  A `PackageId` is
// `(generation << 32) | slot`; canceling a package bumps its slot's
// generation, so ids stay unique (DomainTracker keys on them) and a stale
// id is caught by `get` / `alive`.  Each host's packages form an intrusive
// doubly linked list through the slots, in arrival order: head and tail
// live in two columns indexed by the host's (dense) tree node id.  Arrival
// order is load-bearing — find_static / find_mobile_of_level return the
// first match in it.
//
// Packages optionally carry an Interval of permit serial numbers; the
// name-assignment protocol (§5.2) uses these, the plain controller leaves
// them empty.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "obs/metrics.hpp"
#include "util/ids.hpp"
#include "util/interval.hpp"

namespace dyncon::core {

using PackageId = std::uint64_t;
inline constexpr PackageId kNoPackage = static_cast<PackageId>(-1);

enum class PackageKind : std::uint8_t { kMobile, kStatic, kReject };

struct Package {
  PackageId id = kNoPackage;
  NodeId host = kNoNode;
  std::uint64_t size = 0;   ///< permits (0 for reject packages)
  Interval serials;         ///< optional serial-number payload
  std::uint32_t level = 0;  ///< meaningful for mobile packages only
  PackageKind kind = PackageKind::kMobile;
  bool alive = false;
};

/// All alive packages of one controller instance, plus move-complexity
/// accounting.
class PackageTable {
  struct Slot;

 public:
  PackageTable() = default;

  /// A host's packages in whiteboard (arrival) order: a non-allocating view
  /// over the host's list.  Invalidated by any mutation of the table.
  class HostView {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = PackageId;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = PackageId;

      iterator() = default;
      PackageId operator*() const;
      iterator& operator++();
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator&) const = default;

     private:
      friend class HostView;
      iterator(const std::vector<Slot>* slots, std::uint32_t slot)
          : slots_(slots), slot_(slot) {}
      const std::vector<Slot>* slots_ = nullptr;
      std::uint32_t slot_ = kNil;
    };

    [[nodiscard]] iterator begin() const { return {slots_, head_}; }
    [[nodiscard]] iterator end() const { return {slots_, kNil}; }
    [[nodiscard]] bool empty() const { return head_ == kNil; }
    [[nodiscard]] std::size_t size() const;  ///< walks the list
    [[nodiscard]] PackageId front() const;

   private:
    friend class PackageTable;
    HostView(const std::vector<Slot>* slots, std::uint32_t head)
        : slots_(slots), head_(head) {}
    const std::vector<Slot>* slots_;
    std::uint32_t head_;
  };

  // ---- creation ------------------------------------------------------------

  PackageId create_mobile(NodeId host, std::uint32_t level, std::uint64_t size,
                          Interval serials = {});
  PackageId create_static(NodeId host, std::uint64_t size,
                          Interval serials = {});
  PackageId create_reject(NodeId host);

  // ---- mutation --------------------------------------------------------------

  /// Move a package `hops` edges to `new_host` (the tail of its list);
  /// charges `hops` moves.
  void move(PackageId p, NodeId new_host, std::uint64_t hops);

  /// Erase a mobile package from its host's whiteboard into an agent's Bag
  /// (distributed §4.3: "Erase P from w's whiteboard and put k inside the
  /// variable Bag").  The package stays alive with host kNoNode.
  void pick_up(PackageId p);

  /// Write a carried package onto `node`'s whiteboard.
  void put_down(PackageId p, NodeId node);

  [[nodiscard]] bool carried(PackageId p) const {
    return get(p).host == kNoNode;
  }

  /// Move *all* packages at `node` to `parent` in one message (graceful
  /// deletion), appended in their order after `parent`'s own; charges one
  /// move if any package moved.  Returns how many.
  std::size_t move_all(NodeId node, NodeId parent);

  /// Split a mobile package of level >= 1 into two of level-1 lower, at the
  /// same host.  Serial intervals (if any) are halved.  The original dies.
  std::pair<PackageId, PackageId> split_mobile(PackageId p);

  /// Convert a level-0 mobile package into a static one (same host/size).
  void make_static(PackageId p);

  /// Consume one permit from a static package; cancels it at size 0.
  /// Returns the granted permit's serial number if the package tracks them.
  std::optional<std::uint64_t> consume_one(PackageId p);

  /// Remove a package from the table; its slot is recycled under a new
  /// generation, so `p` stays dead.
  void cancel(PackageId p);

  // ---- queries ----------------------------------------------------------------

  [[nodiscard]] bool alive(PackageId p) const;
  [[nodiscard]] const Package& get(PackageId p) const;
  [[nodiscard]] HostView at(NodeId node) const {
    return {&slots_, head_of(node)};
  }

  [[nodiscard]] bool has_reject(NodeId node) const;
  [[nodiscard]] PackageId find_static(NodeId node) const;
  [[nodiscard]] PackageId find_mobile_of_level(NodeId node,
                                               std::uint32_t level) const;

  /// All alive packages, in slot order (for audits).
  [[nodiscard]] std::vector<PackageId> all_alive() const;

  /// Total permits currently held in alive (non-reject) packages.
  [[nodiscard]] std::uint64_t permits_in_packages() const;

  /// Slots held (alive or free); never more than the peak alive count.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  // ---- hibernation images --------------------------------------------------

  /// One alive package, as recorded in an `Image`.
  struct Record {
    PackageKind kind = PackageKind::kMobile;
    NodeId host = kNoNode;
    std::uint64_t size = 0;
    std::uint32_t level = 0;
    bool operator==(const Record&) const = default;
  };

  /// The table's alive packages, grouped by host in ascending host order
  /// and in each host's whiteboard order (which find_static /
  /// find_mobile_of_level scan positionally, so it is semantically
  /// load-bearing).  Ids are not recorded: nothing outside the table keeps
  /// one across a hibernate cycle, and a restore mints fresh ones.
  struct Image {
    std::uint64_t moves = 0;
    std::vector<Record> alive;
    bool operator==(const Image&) const = default;
  };

  /// Capture the table into `out` (cleared first).  Requires that no
  /// package is carried in a Bag and none tracks serial intervals — true of
  /// every forest controller; the distributed layers never hibernate.
  void extract_image(Image& out) const;

  /// Rebuild a *default-constructed* table from an image by re-creating
  /// its packages in image order: O(alive) work, one slot each.  Replays
  /// no creation/move paths, so `package.created` / `package.splits` /
  /// `moves.total` counters do not re-fire.
  void restore_image(const Image& img);

  /// Heap footprint in bytes (slots plus the two host columns), from
  /// capacities; an accounting estimate for `perf.mem.*`.
  [[nodiscard]] std::uint64_t approx_bytes() const;

  // ---- accounting ----------------------------------------------------------------

  [[nodiscard]] std::uint64_t move_complexity() const { return moves_; }
  void charge_moves(std::uint64_t n) {
    moves_ += n;
    static thread_local obs::CounterHandle moves("moves.total");
    moves.add(n);
  }

 private:
  /// List terminator and "no slot"; also bounds the slot index space.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Slot {
    Package pkg;  ///< pkg.id holds the slot's current generation
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;  ///< host list, or the free list when dead
  };

  PackageId emplace(PackageKind kind, NodeId host, std::uint64_t size,
                    std::uint32_t level, Interval serials);
  std::uint32_t slot_of(PackageId p) const;
  /// First slot of `node`'s list, or kNil.
  std::uint32_t head_of(NodeId node) const {
    return node < head_.size() ? head_[node] : kNil;
  }
  Package& mut(PackageId p) { return slots_[slot_of(p)].pkg; }
  /// Sizes the host columns for `host`; called before any mutation, so a
  /// rejected host leaves the table unchanged.
  void ensure_host(NodeId host);
  void attach(std::uint32_t s, NodeId host);  ///< host's columns must exist
  void detach(std::uint32_t s);

  std::vector<Slot> slots_;
  std::size_t alive_ = 0;  ///< alive packages, hosted or carried
  std::uint32_t free_head_ = kNil;
  std::vector<std::uint32_t> head_;  ///< by host: first slot, or kNil
  std::vector<std::uint32_t> tail_;  ///< by host: last slot, or kNil
  std::uint64_t moves_ = 0;
};

}  // namespace dyncon::core
