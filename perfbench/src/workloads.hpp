#pragma once

// The benchmark's four workloads.  Each is a fixed shape (sizes, op mix,
// fault stack) plus a seed; one call of run_rep builds it, serves every
// request, checks the outputs and returns host times, simulated counters
// and check failures.
//
// Simulated counters are deterministic for a (shape, seed) pair: they are
// the correctness fingerprint, never a speed.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "forest/forest.hpp"
#include "util/ids.hpp"

namespace perfbench {

using dyncon::NodeId;
using dyncon::SimTime;

enum class Family : std::uint8_t { kForest, kDistributed };

struct Shape {
  const char* name;
  Family family;

  // Forest workloads (ForestEngine, centralized controller per tree).
  unsigned shards = 0;
  std::uint64_t trees = 0;
  std::uint64_t users = 0;
  std::uint64_t requests_per_user = 0;
  std::uint64_t tree_size = 0;
  std::uint64_t resident_trees = 0;  ///< per shard; 0 = every tree resident
  bool eager = false;  ///< build every tree during set-up, not on first touch
  double zipf_s = 0.0;
  double grow_fraction = 0.0;
  double shrink_fraction = 0.0;
  SimTime think = 0;

  // Distributed workloads (one controller over the simulated network).
  /// Independent controller instances per repetition, run one after the
  /// other from split seeds: averages the seed's tree and fault placement.
  std::uint64_t instances = 1;
  std::uint64_t nodes = 0;
  std::uint64_t requests = 0;  ///< per instance
  SimTime max_gap = 0;          ///< arrival gap is uniform in [1, max_gap]
  double event_fraction = 1.0;  ///< the rest are leaf-adds
  bool faulty = false;          ///< DistributedIterated over chaos + crashes
};

/// Virtual-time window (ticks) between the forest engine's barriers.
inline constexpr SimTime kWindow = 256;

/// Events per EventQueue::run slice of the distributed workloads: their
/// unit of host latency, as a window is the forest's.
inline constexpr std::uint64_t kSliceEvents = 4096;

[[nodiscard]] const std::vector<Shape>& shapes();
[[nodiscard]] const Shape* find_shape(std::string_view name);

/// The engine configuration of a forest shape (echo swaps in
/// Service::kEcho: the engine machinery without controllers).
[[nodiscard]] dyncon::forest::ForestConfig forest_config(const Shape& s,
                                                 bool echo = false);

using Counters = std::map<std::string, std::uint64_t>;

struct RepResult {
  double setup_s = 0.0;  ///< start of the workload to its first timed request
  double timed_s = 0.0;  ///< host time serving every request
  std::uint64_t attempted = 0;
  std::uint64_t verdicts = 0;  ///< requests that got exactly one verdict
  /// Requests without exactly one verdict, crash-failed requests, and
  /// failed output checks.
  std::uint64_t failed = 0;
  std::vector<std::string> failed_checks;
  std::vector<double> window_ms;  ///< host ms per window (forest) or slice
  std::uint64_t timed_allocs = 0;
  Counters fingerprint;  ///< deterministic simulated statistics
  Counters counts;       ///< deterministic per-layer op counts
};

[[nodiscard]] RepResult run_rep(const Shape& s, std::uint64_t seed,
                                bool echo = false);

}  // namespace perfbench
