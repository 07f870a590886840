// Checked-in regression fixtures: a snapshot + recorded trace pair under
// tests/fixtures/, replayed through several controllers.  This pins the
// end-to-end file workflow (snapshot -> restore -> replay) and gives the
// repository a place to drop reproducers for any future field bug: save
// the snapshot and script, add three lines here.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/distributed_controller.hpp"
#include "core/iterated.hpp"
#include "core/trivial_controller.hpp"
#include "tree/snapshot.hpp"
#include "tree/validate.hpp"
#include "workload/script.hpp"

#ifndef DYNCON_TEST_DATA_DIR
#error "DYNCON_TEST_DATA_DIR must be defined by the build"
#endif

namespace dyncon {
namespace {

std::string slurp(const std::string& name) {
  const std::string path = std::string(DYNCON_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Fixture {
  tree::DynamicTree tree;
  workload::Script script;

  explicit Fixture(const std::string& stem)
      : tree(tree::restore(slurp(stem + ".snapshot"))),
        script(workload::Script::parse(slurp(stem + ".script"))) {}
};

TEST(Fixtures, Caterpillar48Loads) {
  Fixture f("caterpillar48");
  EXPECT_EQ(f.tree.size(), 48u);
  EXPECT_EQ(f.script.size(), 160u);
  EXPECT_TRUE(tree::validate(f.tree).ok());
}

TEST(Fixtures, Caterpillar48ReplaysIdenticallyEverywhere) {
  // The same fixture through three controller implementations with an
  // all-granting budget: identical final topology (and it matches the
  // values recorded when the fixture was generated).
  std::vector<std::uint64_t> sizes;
  for (int impl = 0; impl < 3; ++impl) {
    Fixture f("caterpillar48");
    workload::ReplayStats stats;
    sim::EventQueue queue;
    sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform, 5));
    std::unique_ptr<core::DistributedController> dist;
    std::unique_ptr<core::IController> ctrl;
    if (impl == 0) {
      ctrl = std::make_unique<core::TrivialController>(f.tree, 1u << 20);
    } else if (impl == 1) {
      ctrl = std::make_unique<core::IteratedController>(f.tree, 1u << 20,
                                                        1u << 19, 4096);
    } else {
      dist = std::make_unique<core::DistributedController>(
          net, f.tree, core::Params(1u << 20, 1u << 19, 4096));
      ctrl = std::make_unique<core::DistributedSyncFacade>(queue, *dist);
    }
    stats = workload::replay(f.script, *ctrl, f.tree);
    EXPECT_EQ(stats.skipped, 0u) << "impl " << impl;
    EXPECT_EQ(stats.granted, stats.submitted) << "impl " << impl;
    // Values recorded at fixture-generation time.
    EXPECT_EQ(f.tree.size(), 62u) << "impl " << impl;
    EXPECT_EQ(f.tree.total_ever(), 135u) << "impl " << impl;
    EXPECT_TRUE(tree::validate(f.tree).ok()) << "impl " << impl;
    sizes.push_back(f.tree.size());
  }
  EXPECT_EQ(sizes[0], sizes[1]);
  EXPECT_EQ(sizes[1], sizes[2]);
}

TEST(Fixtures, Caterpillar48UnderTightBudget) {
  // The same fixture with a tight budget: deterministic grant/reject split
  // (a change here means controller behaviour changed — review it!).
  Fixture f("caterpillar48");
  core::IteratedController ctrl(f.tree, /*M=*/60, /*W=*/10, 4096);
  const auto stats = workload::replay(f.script, ctrl, f.tree);
  EXPECT_LE(stats.granted, 60u);
  EXPECT_GE(stats.granted, 50u);
  EXPECT_EQ(stats.granted + stats.rejected + stats.skipped,
            f.script.size());
  EXPECT_TRUE(tree::validate(f.tree).ok());
}

TEST(Fixtures, Path64FlashCrowdReplay) {
  Fixture f("path64");
  EXPECT_EQ(f.tree.size(), 64u);
  EXPECT_EQ(f.script.size(), 200u);
  core::IteratedController ctrl(f.tree, 1u << 20, 1u << 19, 4096);
  const auto stats = workload::replay(f.script, ctrl, f.tree);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.granted, stats.submitted);
  // Values recorded at fixture-generation time.
  EXPECT_EQ(f.tree.size(), 50u);
  EXPECT_EQ(f.tree.total_ever(), 157u);
  EXPECT_TRUE(tree::validate(f.tree).ok());
}

}  // namespace
}  // namespace dyncon
