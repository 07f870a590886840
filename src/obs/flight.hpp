#pragma once

// Flight recorder: periodic virtual-time sampling of selected metrics.
//
// Counters and histograms answer "how much, in total"; the flight recorder
// answers "when".  At a fixed virtual-time period it snapshots a chosen set
// of metric names into one row of a bounded ring, so a run report carries a
// coarse timeline of the run (requests served over time, messages sent over
// time) without per-event cost: sampling happens only at window edges, on
// the serial path, against registries that are already barrier-quiesced.
//
// Determinism: the driver (forest/forest.cpp) samples at window edges —
// which are shard-count invariant — and accumulates the per-shard
// registries in shard order, so a timeline is byte-identical at any
// --shards/--jobs value.  Rows evicted by the capacity bound are counted
// (`overwritten()`), never silently dropped.
//
// A sampled name is read as a counter first and as a gauge second; rows
// hold doubles (counter sums in any realistic run stay far below 2^53, and
// the accumulation order is fixed, so serialization is deterministic).

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/ids.hpp"

namespace dyncon::obs {

class FlightRecorder {
 public:
  FlightRecorder(std::vector<std::string> names, SimTime period,
                 std::size_t capacity = 4096);

  /// True when virtual time `now` has reached the next sample point.
  [[nodiscard]] bool due(SimTime now) const { return now >= next_; }

  /// Start a row stamped `now` and advance the schedule past it.
  void begin_row(SimTime now);
  /// Add `reg`'s values for the selected names into the open row.
  void accumulate(const Registry& reg);
  /// Seal the open row into the ring (evicting the oldest beyond capacity).
  void commit_row();

  struct Row {
    SimTime t = 0;
    std::vector<double> cells;
  };

  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] SimTime period() const { return period_; }
  [[nodiscard]] const std::deque<Row>& rows() const { return ring_; }
  /// Rows committed (monotone; unaffected by ring eviction).
  [[nodiscard]] std::uint64_t taken() const { return taken_; }
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }

  /// {"period", "capacity", "taken", "overwritten", "counters": [names],
  ///  "rows": [[t, v0, v1, ...], ...]}.
  [[nodiscard]] json::Value to_json() const;

 private:
  std::vector<std::string> names_;
  SimTime period_;
  std::size_t capacity_;
  std::deque<Row> ring_;
  Row open_;
  bool row_open_ = false;
  SimTime next_ = 0;
  std::uint64_t taken_ = 0;
  std::uint64_t overwritten_ = 0;
};

}  // namespace dyncon::obs
