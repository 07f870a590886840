#include "obs/flight.hpp"

#include "util/error.hpp"

namespace dyncon::obs {

FlightRecorder::FlightRecorder(std::vector<std::string> names, SimTime period,
                               std::size_t capacity)
    : names_(std::move(names)), period_(period), capacity_(capacity) {
  DYNCON_REQUIRE(period_ >= 1, "flight-recorder period must be >= 1 tick");
  DYNCON_REQUIRE(capacity_ >= 1, "flight recorder needs capacity for a row");
}

void FlightRecorder::begin_row(SimTime now) {
  DYNCON_REQUIRE(!row_open_, "previous flight-recorder row never committed");
  open_.t = now;
  open_.cells.assign(names_.size(), 0.0);
  row_open_ = true;
  // Catch up past `now` in whole periods so an idle stretch costs nothing
  // and the schedule stays a pure function of the sample times.
  while (next_ <= now) next_ += period_;
}

void FlightRecorder::accumulate(const Registry& reg) {
  DYNCON_REQUIRE(row_open_, "accumulate outside begin_row/commit_row");
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const std::string& name = names_[i];
    if (const auto it = reg.counters().find(name);
        it != reg.counters().end()) {
      open_.cells[i] += static_cast<double>(it->second);
      continue;
    }
    if (const auto it = reg.gauges().find(name); it != reg.gauges().end()) {
      open_.cells[i] += it->second;
    }
  }
}

void FlightRecorder::commit_row() {
  DYNCON_REQUIRE(row_open_, "commit_row without begin_row");
  row_open_ = false;
  ++taken_;
  ring_.push_back(open_);
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++overwritten_;
  }
}

json::Value FlightRecorder::to_json() const {
  json::Value doc = json::Value::object();
  doc["period"] = period_;
  doc["capacity"] = static_cast<std::uint64_t>(capacity_);
  doc["taken"] = taken_;
  doc["overwritten"] = overwritten_;
  json::Array counters;
  counters.reserve(names_.size());
  for (const std::string& n : names_) counters.push_back(json::Value(n));
  doc["counters"] = json::Value(std::move(counters));
  json::Array rows;
  rows.reserve(ring_.size());
  for (const Row& row : ring_) {
    json::Array cells;
    cells.reserve(row.cells.size() + 1);
    cells.push_back(json::Value(row.t));
    for (double v : row.cells) cells.push_back(json::Value(v));
    rows.push_back(json::Value(std::move(cells)));
  }
  doc["rows"] = json::Value(std::move(rows));
  return doc;
}

}  // namespace dyncon::obs
