// The deterministic parallel run engine (util/thread_pool.hpp) and the
// observability guarantees parallel sweeps lean on:
//
//   * the fork-join pool runs every index once per round, keeps index p
//     on participant p (index 0 on the caller), survives rounds longer
//     than its spin budget, and propagates exceptions,
//   * for_each_index reports the lowest-index failure regardless of
//     scheduling,
//   * seed derivation depends only on (base_seed, index) — never on the
//     worker count,
//   * a replicated distributed-controller sweep produces byte-identical
//     metric snapshots at jobs=1 and jobs=8,
//   * Registry epochs stay unique when minted from many threads, and
//     Registry::merge reproduces the serial totals.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/distributed_controller.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/shapes.hpp"

namespace dyncon::util {
namespace {

TEST(ThreadPool, OneJobStartsNoThreadAndRunsInOrder) {
  ThreadPool pool(1);
  std::vector<std::uint64_t> order;
  std::vector<std::thread::id> ran_on;
  pool.for_each(10, [&](std::uint64_t i) {
    order.push_back(i);
    ran_on.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 10u);
  for (std::uint64_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << "index " << i;
  }
}

TEST(ThreadPool, IndexPRunsOnTheSameThreadEveryRound) {
  // Participant p runs index p first, so with n <= jobs the forest's shard
  // s stays on one thread, and shard 0 runs on the caller.
  constexpr unsigned kJobs = 4;
  ThreadPool pool(kJobs);
  for (const std::uint64_t n : {std::uint64_t{3}, std::uint64_t{kJobs}}) {
    std::vector<std::thread::id> first(n);
    for (int round = 0; round < 100; ++round) {
      std::vector<std::thread::id> ran_on(n);
      pool.for_each(n, [&](std::uint64_t i) {
        ran_on[i] = std::this_thread::get_id();
      });
      EXPECT_EQ(ran_on[0], std::this_thread::get_id()) << "round " << round;
      if (round == 0) {
        first = ran_on;
        const std::set<std::thread::id> distinct(ran_on.begin(),
                                                 ran_on.end());
        EXPECT_EQ(distinct.size(), n) << "one participant per index";
      }
      ASSERT_EQ(ran_on, first) << "n " << n << " round " << round;
    }
  }
}

TEST(ThreadPool, EveryIndexOncePerRoundAtAnyWidth) {
  // Fewer indices than participants, exactly as many, and many more
  // (claimed from the shared counter), over many short rounds.
  ThreadPool pool(4);
  for (const std::uint64_t n : {2u, 4u, 37u}) {
    std::vector<int> hits(n, 0);
    constexpr int kRounds = 1000;
    for (int round = 0; round < kRounds; ++round) {
      pool.for_each(n, [&](std::uint64_t i) { hits[i] += 1; });
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i], kRounds) << "n " << n << " index " << i;
    }
  }
}

TEST(ThreadPool, RoundsOutlastingTheSpinBudgetComplete) {
  // Bodies that sleep far past the spin budget send the caller and idle
  // workers into std::atomic::wait; the round and the next one finish.
  ThreadPool pool(3);
  for (int round = 0; round < 2; ++round) {
    std::atomic<int> done{0};
    pool.for_each(5, [&](std::uint64_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 1 : 20));
      done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), 5) << "round " << round;
  }
}

TEST(ThreadPool, DestroyedWhileWorkersBlockJoinsPromptly) {
  // Past the spin budget idle workers block in std::atomic::wait; the
  // destructor must wake and join them whether or not a round ever ran.
  const auto t0 = std::chrono::steady_clock::now();
  {
    ThreadPool unused(4);
    ThreadPool used(4);
    used.for_each(4, [](std::uint64_t) {});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

TEST(ThreadPool, ForEachIsAReusableBarrier) {
  // The forest runtime barriers once per virtual-time window on the SAME
  // pool; every call must visit every index exactly once and return only
  // after all of them finished.
  ThreadPool pool(4);
  std::vector<int> hits(64, 0);
  for (int round = 0; round < 50; ++round) {
    pool.for_each(hits.size(), [&](std::uint64_t i) { hits[i] += 1; });
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 50) << "index " << i;
  }
}

TEST(ThreadPool, ForEachHandlesDegenerateCounts) {
  ThreadPool pool(3);
  pool.for_each(0, [](std::uint64_t) { FAIL() << "n=0 must not call fn"; });
  int calls = 0;
  pool.for_each(1, [&](std::uint64_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ForEachRethrowsLowestIndexAndStaysUsable) {
  ThreadPool pool(4);
  try {
    pool.for_each(32, [](std::uint64_t i) {
      if (i == 3) throw std::runtime_error("index 3");
      if (i == 20) throw std::runtime_error("index 20");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
  std::atomic<int> done{0};
  pool.for_each(8, [&](std::uint64_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 8);
}

TEST(ForEachIndex, VisitsEveryIndexOnceAtAnyJobCount) {
  for (const unsigned jobs : {1u, 3u, 8u}) {
    std::vector<int> hits(257, 0);
    for_each_index(hits.size(), jobs,
                   [&](std::uint64_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ForEachIndex, LowestFailingIndexWinsRegardlessOfScheduling) {
  for (const unsigned jobs : {1u, 7u}) {
    try {
      for_each_index(64, jobs, [](std::uint64_t i) {
        // Higher indices fail "sooner" in wall-clock terms, lower index
        // failures must still win the report.
        if (i == 5) throw std::runtime_error("index 5");
        if (i == 50) throw std::runtime_error("index 50");
      });
      FAIL() << "expected an exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 5") << "jobs=" << jobs;
    }
  }
}

TEST(ParallelForRuns, SeedDerivationIndependentOfWorkerCount) {
  auto draws_at = [](unsigned jobs) {
    std::vector<std::uint64_t> first(40, 0);
    parallel_for_runs(first.size(), jobs, /*base_seed=*/12345,
                      [&](std::uint64_t i, Rng rng) {
                        first[i] = rng.next();
                      });
    return first;
  };
  const auto serial = draws_at(1);
  EXPECT_EQ(serial, draws_at(5));
  EXPECT_EQ(serial, draws_at(8));
  // And the streams are pairwise distinct (split() actually splits).
  std::set<std::uint64_t> uniq(serial.begin(), serial.end());
  EXPECT_EQ(uniq.size(), serial.size());
}

TEST(RegistryConcurrency, EpochsUniqueAcrossThreads) {
  std::vector<std::uint64_t> epochs(64, 0);
  for_each_index(epochs.size(), 8, [&](std::uint64_t i) {
    obs::Registry r;
    epochs[i] = r.epoch();
  });
  std::set<std::uint64_t> uniq(epochs.begin(), epochs.end());
  EXPECT_EQ(uniq.size(), epochs.size());
}

// One seeded distributed-controller run, instrumented into whatever
// registry is installed on the calling thread.
void one_run(Rng rng) {
  sim::EventQueue queue;
  sim::Network net(queue, sim::make_delay(sim::DelayKind::kUniform,
                                          rng.next()));
  tree::DynamicTree t;
  workload::build(t, workload::Shape::kRandomAttach, 48, rng);
  core::DistributedController::Options opts;
  opts.track_domains = false;
  core::DistributedController ctrl(net, t, core::Params(80, 16, 256), opts);
  core::DistributedSyncFacade facade(queue, ctrl);
  const auto nodes = t.alive_nodes();
  for (int i = 0; i < 100; ++i) {
    facade.request_event(nodes[rng.index(nodes.size())]);
  }
}

std::string sweep_snapshot(unsigned jobs) {
  // The bench::parallel_sweep recipe, hand-rolled: per-run registries,
  // merged into a fresh main registry in run order.
  obs::Registry main_reg;
  std::vector<obs::Registry> per_run(8);
  parallel_for_runs(per_run.size(), jobs, /*base_seed=*/777,
                    [&](std::uint64_t i, Rng rng) {
                      obs::ScopedMetrics scope(per_run[i]);
                      one_run(rng);
                    });
  for (const obs::Registry& r : per_run) main_reg.merge(r);
  std::ostringstream os;
  main_reg.to_json().dump(os, 2);
  return os.str();
}

TEST(ParallelSweep, MetricSnapshotsByteIdenticalAcrossJobCounts) {
  const std::string serial = sweep_snapshot(1);
  EXPECT_FALSE(serial.empty());
  // The workload actually instruments something; an empty registry would
  // make this test vacuous.
  EXPECT_NE(serial.find("net.messages"), std::string::npos);
  EXPECT_EQ(serial, sweep_snapshot(8));
}

TEST(RegistryMerge, MatchesSerialTotals) {
  // The same instrumentation split across two registries and merged must
  // equal one registry that saw everything.
  obs::Registry whole;
  {
    obs::ScopedMetrics scope(whole);
    one_run(Rng(9));
    one_run(Rng(10));
  }
  obs::Registry a, b, merged;
  {
    obs::ScopedMetrics scope(a);
    one_run(Rng(9));
  }
  {
    obs::ScopedMetrics scope(b);
    one_run(Rng(10));
  }
  merged.merge(a);
  merged.merge(b);
  std::ostringstream w, m;
  whole.to_json().dump(w, 2);
  merged.to_json().dump(m, 2);
  EXPECT_EQ(w.str(), m.str());
}

}  // namespace
}  // namespace dyncon::util
