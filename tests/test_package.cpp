// Unit tests for the package table: creation, moves, splits, consumption,
// carry semantics, move-complexity accounting, serial payloads, recycled
// slots with generation ids, and per-host arrival order against a
// reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/package.hpp"
#include "util/rng.hpp"

namespace dyncon::core {
namespace {

TEST(PackageTable, CreateAndQuery) {
  PackageTable t;
  const PackageId m = t.create_mobile(3, 2, 8);
  const PackageId s = t.create_static(3, 2);
  const PackageId r = t.create_reject(4);
  EXPECT_TRUE(t.alive(m));
  EXPECT_EQ(t.get(m).level, 2u);
  EXPECT_EQ(t.at(3).size(), 2u);
  EXPECT_TRUE(t.has_reject(4));
  EXPECT_FALSE(t.has_reject(3));
  EXPECT_EQ(t.find_static(3), s);
  EXPECT_EQ(t.find_mobile_of_level(3, 2), m);
  EXPECT_EQ(t.find_mobile_of_level(3, 1), kNoPackage);
  EXPECT_EQ(t.get(r).kind, PackageKind::kReject);
}

TEST(PackageTable, MoveChargesHops) {
  PackageTable t;
  const PackageId m = t.create_mobile(1, 0, 1);
  t.move(m, 9, 5);
  EXPECT_EQ(t.get(m).host, 9u);
  EXPECT_EQ(t.move_complexity(), 5u);
  EXPECT_TRUE(t.at(1).empty());
  EXPECT_EQ(t.at(9).front(), m);
}

TEST(PackageTable, MoveAllIsOneMessage) {
  PackageTable t;
  t.create_mobile(2, 0, 1);
  t.create_static(2, 1);
  t.create_reject(2);
  EXPECT_EQ(t.move_all(2, 1), 3u);
  EXPECT_EQ(t.move_complexity(), 1u);
  EXPECT_EQ(t.at(1).size(), 3u);
  EXPECT_EQ(t.move_all(5, 1), 0u);  // nothing there
  EXPECT_EQ(t.move_complexity(), 1u);
}

TEST(PackageTable, SplitHalvesSizeAndLevel) {
  PackageTable t;
  const PackageId m = t.create_mobile(7, 3, 16);
  auto [a, b] = t.split_mobile(m);
  EXPECT_FALSE(t.alive(m));
  EXPECT_EQ(t.get(a).level, 2u);
  EXPECT_EQ(t.get(b).level, 2u);
  EXPECT_EQ(t.get(a).size + t.get(b).size, 16u);
  EXPECT_EQ(t.get(a).host, 7u);
}

TEST(PackageTable, SplitPropagatesSerials) {
  PackageTable t;
  const PackageId m = t.create_mobile(7, 1, 4, Interval(10, 13));
  auto [a, b] = t.split_mobile(m);
  EXPECT_EQ(t.get(a).serials, Interval(10, 11));
  EXPECT_EQ(t.get(b).serials, Interval(12, 13));
}

TEST(PackageTable, SplitRejectsLevelZeroAndNonMobile) {
  PackageTable t;
  const PackageId z = t.create_mobile(1, 0, 1);
  EXPECT_THROW(t.split_mobile(z), ContractError);
  const PackageId s = t.create_static(1, 1);
  EXPECT_THROW(t.split_mobile(s), ContractError);
}

TEST(PackageTable, MakeStaticAndConsume) {
  PackageTable t;
  const PackageId m = t.create_mobile(5, 0, 2, Interval(40, 41));
  t.make_static(m);
  EXPECT_EQ(t.get(m).kind, PackageKind::kStatic);
  EXPECT_EQ(t.consume_one(m), std::make_optional<std::uint64_t>(40));
  EXPECT_TRUE(t.alive(m));
  EXPECT_EQ(t.consume_one(m), std::make_optional<std::uint64_t>(41));
  EXPECT_FALSE(t.alive(m));  // canceled at size 0
  EXPECT_EQ(t.find_static(5), kNoPackage);
}

TEST(PackageTable, ConsumeWithoutSerials) {
  PackageTable t;
  const PackageId s = t.create_static(5, 3);
  EXPECT_EQ(t.consume_one(s), std::nullopt);
  EXPECT_EQ(t.get(s).size, 2u);
}

TEST(PackageTable, PickUpAndPutDown) {
  PackageTable t;
  const PackageId m = t.create_mobile(5, 1, 2);
  t.pick_up(m);
  EXPECT_TRUE(t.carried(m));
  EXPECT_TRUE(t.at(5).empty());
  EXPECT_EQ(t.find_mobile_of_level(5, 1), kNoPackage);
  t.put_down(m, 8);
  EXPECT_FALSE(t.carried(m));
  EXPECT_EQ(t.find_mobile_of_level(8, 1), m);
  EXPECT_EQ(t.move_complexity(), 0u);  // carried inside an agent: free
}

TEST(PackageTable, PermitAccounting) {
  PackageTable t;
  t.create_mobile(1, 2, 4);
  t.create_static(2, 3);
  t.create_reject(3);
  EXPECT_EQ(t.permits_in_packages(), 7u);
  EXPECT_EQ(t.all_alive().size(), 3u);
}

TEST(PackageTable, CancelRemovesFromIndex) {
  PackageTable t;
  const PackageId m = t.create_mobile(1, 0, 1);
  t.cancel(m);
  EXPECT_FALSE(t.alive(m));
  EXPECT_TRUE(t.at(1).empty());
  EXPECT_THROW(t.get(m), ContractError);
}

TEST(PackageTable, SerialSizeMismatchRejected) {
  PackageTable t;
  EXPECT_THROW(t.create_mobile(1, 1, 2, Interval(1, 5)), ContractError);
  EXPECT_THROW(t.create_static(1, 2, Interval(1, 5)), ContractError);
}

TEST(PackageTable, StaleIdIsCaughtAfterSlotReuse) {
  PackageTable t;
  const PackageId p = t.create_mobile(2, 1, 2);
  t.cancel(p);
  const PackageId q = t.create_static(4, 1);  // reuses p's slot
  EXPECT_EQ(t.slot_count(), 1u);
  EXPECT_NE(q, p);
  EXPECT_FALSE(t.alive(p));
  EXPECT_THROW((void)t.get(p), ContractError);
  EXPECT_THROW(t.cancel(p), ContractError);
  EXPECT_TRUE(t.alive(q));
  EXPECT_EQ(t.get(q).host, 4u);
  EXPECT_TRUE(t.at(2).empty());
}

TEST(PackageTable, NonTreeHostIsRejectedWithoutChange) {
  // Hosts index the per-host columns, so they must be tree node ids; a
  // rejected call leaves the table as it was.
  PackageTable t;
  EXPECT_THROW(t.create_static(kNoNode, 1), ContractError);
  EXPECT_EQ(t.slot_count(), 0u);
  const PackageId m = t.create_mobile(3, 0, 1);
  EXPECT_THROW(t.move(m, kNoNode, 1), ContractError);
  EXPECT_THROW(t.move_all(3, kNoNode), ContractError);
  EXPECT_EQ(t.get(m).host, 3u);
  EXPECT_EQ(t.find_mobile_of_level(3, 0), m);
  EXPECT_EQ(t.move_complexity(), 0u);
}

TEST(PackageTable, SlotsNeverExceedPeakAlive) {
  // A long history of short-lived packages, at most 3 alive at a time:
  // storage follows the live packages, not the history.
  PackageTable t;
  std::vector<PackageId> seen;
  for (int i = 0; i < 10000; ++i) {
    const PackageId m = t.create_mobile(static_cast<NodeId>(i % 7), 2, 4);
    auto [a, b] = t.split_mobile(m);
    t.make_static(t.split_mobile(a).first);
    t.cancel(b);
    const PackageId st = t.find_static(static_cast<NodeId>(i % 7));
    ASSERT_NE(st, kNoPackage);
    t.consume_one(st);
    t.cancel(t.find_mobile_of_level(static_cast<NodeId>(i % 7), 0));
    ASSERT_TRUE(t.all_alive().empty());
    if (i < 4) seen.push_back(m);
  }
  EXPECT_LE(t.slot_count(), 3u);
  for (PackageId old : seen) EXPECT_FALSE(t.alive(old));
}

// ---- order differential -----------------------------------------------------
//
// The table keeps each host's packages in an intrusive list; the reference
// keeps one vector per host, appending on arrival and erasing in place —
// the whiteboard order find_static / find_mobile_of_level depend on.

struct RefPackage {
  PackageKind kind;
  NodeId host;
  std::uint64_t size;
  std::uint32_t level;
};

class ReferenceTable {
 public:
  void add(PackageId p, const RefPackage& pkg) {
    pkgs_[p] = pkg;
    if (pkg.host != kNoNode) hosts_[pkg.host].push_back(p);
  }
  void remove(PackageId p) {
    unhost(p);
    pkgs_.erase(p);
  }
  void unhost(PackageId p) {
    const NodeId h = pkgs_.at(p).host;
    if (h == kNoNode) return;
    auto& v = hosts_[h];
    v.erase(std::find(v.begin(), v.end(), p));
    pkgs_.at(p).host = kNoNode;
  }
  void rehost(PackageId p, NodeId h) {
    unhost(p);
    pkgs_.at(p).host = h;
    hosts_[h].push_back(p);
  }

  std::map<PackageId, RefPackage> pkgs_;
  std::map<NodeId, std::vector<PackageId>> hosts_;
};

/// A random alive package id satisfying `pred`, or kNoPackage.
template <typename Pred>
PackageId pick(const ReferenceTable& ref, Rng& rng, Pred pred) {
  std::vector<PackageId> ok;
  for (const auto& [p, pkg] : ref.pkgs_) {
    if (pred(pkg)) ok.push_back(p);
  }
  return ok.empty() ? kNoPackage : ok[rng.index(ok.size())];
}

void expect_same(const PackageTable& t, const ReferenceTable& ref,
                 NodeId hosts, int step) {
  std::uint64_t permits = 0;
  for (const auto& [p, pkg] : ref.pkgs_) {
    ASSERT_TRUE(t.alive(p)) << "step " << step;
    const Package& got = t.get(p);
    ASSERT_EQ(got.kind, pkg.kind) << "step " << step;
    ASSERT_EQ(got.host, pkg.host) << "step " << step;
    ASSERT_EQ(got.size, pkg.size) << "step " << step;
    if (pkg.kind == PackageKind::kMobile) {
      ASSERT_EQ(got.level, pkg.level) << "step " << step;
    }
    if (pkg.kind != PackageKind::kReject) permits += pkg.size;
  }
  ASSERT_EQ(t.permits_in_packages(), permits) << "step " << step;
  ASSERT_EQ(t.all_alive().size(), ref.pkgs_.size()) << "step " << step;
  for (NodeId h = 0; h < hosts; ++h) {
    const auto it = ref.hosts_.find(h);
    const std::vector<PackageId> want =
        it == ref.hosts_.end() ? std::vector<PackageId>{} : it->second;
    const auto view = t.at(h);
    const std::vector<PackageId> got(view.begin(), view.end());
    ASSERT_EQ(got, want) << "host " << h << " order, step " << step;

    PackageId want_static = kNoPackage;
    bool want_reject = false;
    for (PackageId p : want) {
      const RefPackage& pkg = ref.pkgs_.at(p);
      if (pkg.kind == PackageKind::kStatic && want_static == kNoPackage) {
        want_static = p;
      }
      want_reject = want_reject || pkg.kind == PackageKind::kReject;
    }
    ASSERT_EQ(t.find_static(h), want_static) << "step " << step;
    ASSERT_EQ(t.has_reject(h), want_reject) << "step " << step;
    for (std::uint32_t lvl = 0; lvl <= 3; ++lvl) {
      PackageId want_mobile = kNoPackage;
      for (PackageId p : want) {
        const RefPackage& pkg = ref.pkgs_.at(p);
        if (pkg.kind == PackageKind::kMobile && pkg.level == lvl) {
          want_mobile = p;
          break;
        }
      }
      ASSERT_EQ(t.find_mobile_of_level(h, lvl), want_mobile)
          << "host " << h << " level " << lvl << ", step " << step;
    }
  }
}

TEST(PackageTable, HostOrderMatchesReferenceModel) {
  constexpr NodeId kHosts = 6;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 77ull}) {
    PackageTable t;
    ReferenceTable ref;
    Rng rng(seed);
    std::vector<PackageId> dead;
    std::size_t peak_alive = 0;
    const auto hosted = [](const RefPackage& pkg) {
      return pkg.host != kNoNode;
    };
    for (int step = 0; step < 3000; ++step) {
      const NodeId h = rng.index(kHosts);
      switch (rng.index(10)) {
        case 0: {  // create
          const std::uint64_t what = rng.index(3);
          if (what == 0) {
            const auto lvl = static_cast<std::uint32_t>(rng.index(4));
            ref.add(t.create_mobile(h, lvl, std::uint64_t{2} << lvl),
                    {PackageKind::kMobile, h, std::uint64_t{2} << lvl, lvl});
          } else if (what == 1) {
            const std::uint64_t size = 1 + rng.index(3);
            ref.add(t.create_static(h, size),
                    {PackageKind::kStatic, h, size, 0});
          } else {
            ref.add(t.create_reject(h), {PackageKind::kReject, h, 0, 0});
          }
          break;
        }
        case 1: {  // move
          const PackageId p = pick(ref, rng, hosted);
          if (p == kNoPackage) break;
          t.move(p, h, 1);
          ref.rehost(p, h);
          break;
        }
        case 2: {  // move_all, sometimes onto itself
          const NodeId from = rng.index(kHosts);
          std::vector<PackageId> moving;
          if (auto it = ref.hosts_.find(from); it != ref.hosts_.end()) {
            moving = it->second;
          }
          ASSERT_EQ(t.move_all(from, h), moving.size());
          for (PackageId p : moving) ref.rehost(p, h);
          break;
        }
        case 3: {  // split
          const PackageId p = pick(ref, rng, [](const RefPackage& pkg) {
            return pkg.host != kNoNode && pkg.kind == PackageKind::kMobile &&
                   pkg.level >= 1;
          });
          if (p == kNoPackage) break;
          const RefPackage was = ref.pkgs_.at(p);
          const auto [a, b] = t.split_mobile(p);
          ref.remove(p);
          dead.push_back(p);
          const RefPackage half{PackageKind::kMobile, was.host, was.size / 2,
                                was.level - 1};
          ref.add(a, half);
          ref.add(b, half);
          break;
        }
        case 4: {  // make_static
          const PackageId p = pick(ref, rng, [](const RefPackage& pkg) {
            return pkg.host != kNoNode && pkg.kind == PackageKind::kMobile &&
                   pkg.level == 0;
          });
          if (p == kNoPackage) break;
          t.make_static(p);
          ref.pkgs_.at(p).kind = PackageKind::kStatic;
          break;
        }
        case 5: {  // consume
          const PackageId p = pick(ref, rng, [](const RefPackage& pkg) {
            return pkg.kind == PackageKind::kStatic;
          });
          if (p == kNoPackage) break;
          t.consume_one(p);
          if (--ref.pkgs_.at(p).size == 0) {
            ref.remove(p);
            dead.push_back(p);
          }
          break;
        }
        case 6: {  // pick_up
          const PackageId p = pick(ref, rng, [](const RefPackage& pkg) {
            return pkg.host != kNoNode && pkg.kind == PackageKind::kMobile;
          });
          if (p == kNoPackage) break;
          t.pick_up(p);
          ref.unhost(p);
          break;
        }
        case 7: {  // put_down
          const PackageId p = pick(ref, rng, [](const RefPackage& pkg) {
            return pkg.host == kNoNode;
          });
          if (p == kNoPackage) break;
          t.put_down(p, h);
          ref.rehost(p, h);
          break;
        }
        default: {  // cancel
          const PackageId p =
              pick(ref, rng, [](const RefPackage&) { return true; });
          if (p == kNoPackage) break;
          t.cancel(p);
          ref.remove(p);
          dead.push_back(p);
          break;
        }
      }
      peak_alive = std::max(peak_alive, ref.pkgs_.size());
      ASSERT_LE(t.slot_count(), peak_alive) << "step " << step;
      expect_same(t, ref, kHosts, step);
      if (!dead.empty()) {
        ASSERT_FALSE(t.alive(dead[rng.index(dead.size())])) << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace dyncon::core
