#pragma once

// The centralized (M,W)-controller of paper §3.1 (fixed, known U).
//
// Initially M permits (and infinitely many rejects) reside in the root's
// storage.  A request at u is served by Protocol GrantOrReject(u):
//
//   1. a reject package at u rejects the request;
//   2. a static package at u grants it (consuming one permit);
//   3. otherwise walk up from u looking for the closest *filler node*: an
//      ancestor at distance d hosting a mobile package of the unique level
//      whose window contains d.  If none exists up to the root, create a
//      level-j(u) package at the root — or start the reject wave if fewer
//      than 2^j(u) * phi permits remain;
//   4. distribute the found/created package down the path with Proc: a
//      level-k package moves to u_{k-1} (3*2^(k-2)*psi above u) and splits,
//      leaving one level-(k-1) package there; the final level-0 package
//      reaches u, becomes static, and grants the request.
//
// The cost measure is *move complexity* (PackageTable accounting).  Domains
// are maintained (optionally) per §3.2 so tests can audit Claim 3.1.
//
// `Mode::kExhaustSignal` replaces the reject wave with an `kExhausted`
// outcome so wrappers (Obs. 2.1 terminating transform, Obs. 3.4 iteration)
// can take over — the paper's "instead of rejecting a request, the
// algorithm clears the data structure ... and starts the i+1'st iteration".

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/controller_iface.hpp"
#include "core/domain.hpp"
#include "core/package.hpp"
#include "core/params.hpp"
#include "tree/dynamic_tree.hpp"
#include "util/interval.hpp"

namespace dyncon::core {

class CentralizedController final : public IController {
 public:
  enum class Mode : std::uint8_t {
    kRejectWave,     ///< paper default: broadcast rejects on exhaustion
    kExhaustSignal,  ///< return kExhausted instead (for wrappers)
  };

  struct Options {
    Mode mode = Mode::kRejectWave;
    bool track_domains = true;
    /// Serial numbers for the M permits (name assignment, §5.2); empty to
    /// run the plain anonymous-permit controller.
    Interval serials;
    /// Local observation hook (§5.3): called as (node, permits) whenever a
    /// package of `permits` permits moves down into `node`.  Nodes observe
    /// this locally — it costs no messages — and the subtree estimator is
    /// built on it.
    std::function<void(NodeId, std::uint64_t)> on_pass_down;
  };

  CentralizedController(tree::DynamicTree& tree, Params params,
                        Options options);
  CentralizedController(tree::DynamicTree& tree, Params params)
      : CentralizedController(tree, params, Options{}) {}
  ~CentralizedController() override;

  CentralizedController(const CentralizedController&) = delete;
  CentralizedController& operator=(const CentralizedController&) = delete;

  // IController.
  Result request_event(NodeId u) override;
  Result request_add_leaf(NodeId parent) override;
  Result request_add_internal_above(NodeId child) override;
  Result request_remove(NodeId v) override;
  [[nodiscard]] std::uint64_t cost() const override;
  [[nodiscard]] std::uint64_t permits_granted() const override {
    return granted_;
  }

  /// The asynchronous form of the request_* calls: `done` fires with the
  /// verdict before submit returns.
  void submit(const RequestSpec& spec, BaseController::Callback done);

  // Introspection.
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] std::uint64_t root_storage() const { return storage_; }
  [[nodiscard]] std::uint64_t rejects_delivered() const { return rejects_; }
  [[nodiscard]] bool reject_wave_started() const { return wave_; }
  [[nodiscard]] bool exhausted() const { return exhausted_; }
  [[nodiscard]] const PackageTable& packages() const { return packages_; }
  [[nodiscard]] const DomainTracker* domains() const {
    return domains_.get();
  }

  /// Unused permits currently in packages plus the root storage (the L of
  /// Obs. 3.4's iteration step).
  [[nodiscard]] std::uint64_t unused_permits() const;

  /// Remaining serial numbers (root storage interval), if tracked.
  [[nodiscard]] const Interval& storage_serials() const {
    return storage_serials_;
  }

  // ---- hibernation images --------------------------------------------------

  /// The controller's complete mutable state (the tree itself is rebuilt
  /// separately).  Forest-scoped: controllers with serial tracking, domain
  /// tracking, or an on_pass_down hook refuse to be imaged.
  struct Image {
    std::uint64_t storage = 0;
    std::uint64_t granted = 0;
    std::uint64_t rejects = 0;
    bool wave = false;
    bool exhausted = false;
    PackageTable::Image packages;
    bool operator==(const Image&) const = default;
  };

  /// Capture the controller's state into `out` (cleared first).
  void extract_image(Image& out) const;

  /// Restore onto a freshly constructed (or reset) controller with
  /// identical Params / Options over an identically rebuilt tree.  No
  /// counters re-fire (`permits.granted`, `wave.count`, `moves.total`, ...
  /// already counted in their original shard registry before hibernation).
  void restore_image(const Image& img);

  /// Return to the freshly constructed state over the same tree object,
  /// which the caller has rebuilt: M permits at the root, no package, no
  /// cost.  Package storage and the path buffer keep their capacity, so a
  /// forest slot recycles its controller without allocating.  Like the
  /// images, refused for domain-tracking controllers.
  void reset();

  /// Rough heap footprint in bytes: the package table plus the path
  /// buffer.
  [[nodiscard]] std::uint64_t approx_bytes() const {
    return packages_.approx_bytes() + path_.capacity() * sizeof(NodeId);
  }

 private:
  /// What to do at u when the permit is granted.
  struct EventSpec {
    enum class Type : std::uint8_t {
      kNone,
      kAddLeaf,
      kAddInternal,
      kRemove,
    };
    Type type = Type::kNone;
    NodeId subject = kNoNode;  ///< parent-to-be / child-above / node-to-go
  };

  /// Span-emitting wrapper around handle_impl: every public request_* call
  /// funnels here, so one site records the per-operation span (an instant
  /// at obs::span_now() — the centralized controller is synchronous).
  Result handle(NodeId u, const EventSpec& ev);
  Result handle_impl(NodeId u, const EventSpec& ev);
  Result grant_from_static(PackageId st, NodeId u, const EventSpec& ev);
  void apply_event(NodeId u, const EventSpec& ev, Result& res);
  void start_reject_wave();
  /// Distribute package `p` (level j, hosted at path_[dist]) down path_
  /// (path_[i] = ancestor of u at distance i), then grant at u.
  Result distribute_and_grant(PackageId p, std::uint32_t j,
                              std::uint64_t dist, NodeId u,
                              const EventSpec& ev);

  tree::DynamicTree& tree_;
  Params params_;
  Options options_;
  PackageTable packages_;
  std::unique_ptr<DomainTracker> domains_;

  std::uint64_t storage_;  ///< permits remaining at the root
  Interval storage_serials_;
  std::uint64_t granted_ = 0;
  std::uint64_t rejects_ = 0;
  bool wave_ = false;
  bool exhausted_ = false;
  /// The filler search's walk from u to the root, reused across requests
  /// so a warm request allocates nothing.  The on_pass_down hook must not
  /// re-enter the controller while it is read.
  std::vector<NodeId> path_;
};

}  // namespace dyncon::core
