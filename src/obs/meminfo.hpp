#pragma once

// Process-level memory readings for the perf.mem.* gauges: current and
// peak resident set size, straight from the kernel's per-process counters.
// These are the one class of perf figures that CANNOT be deterministic —
// they measure the allocator and the machine, not the simulation — so
// report emitters publish them as gauges only (no gate compares them
// across hosts) and check_report checks consistency (peak >= current),
// never absolute values.

#include <cstdint>

namespace dyncon::obs {

/// Current resident set size in bytes (/proc/self/statm).  0 when the
/// reading is unavailable (non-Linux, or /proc unmounted).
[[nodiscard]] std::uint64_t current_rss_bytes();

/// Peak resident set size in bytes (/proc/self/status VmHWM).  0 when
/// unavailable.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace dyncon::obs
