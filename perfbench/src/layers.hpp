#pragma once

// Per-layer cost table of the traced run.
//
// Each layer's ns-per-op comes from a timed loop over that layer's public
// functions, fed with inputs drawn from the workload's own shape and op
// mix; its op count per request comes from the workload's deterministic
// counters; and its share is ns_per_op x ops / the workload's timed host
// time.  Layers a workload bypasses report 0 throughout.

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// What the traced run measured on the workload itself.
struct LayerInputs {
  double timed_s = 0.0;  ///< fastest untraced timed host time of one rep
  Counters counts;       ///< op counts of one rep (identical across reps)
  double allocs_per_request = 0.0;
  double trace_overhead = 0.0;
};

[[nodiscard]] std::vector<Metric> layer_metrics(const Shape& s,
                                                std::uint64_t seed,
                                                const LayerInputs& in);

}  // namespace perfbench
