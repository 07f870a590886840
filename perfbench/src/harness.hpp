#pragma once

// Shared pieces of the host-time benchmark: the clock, the process-wide
// allocation counter, the span recorder, and small statistics helpers.
//
// Everything here lives in the benchmark's own files; the library under
// test is driven only through its public headers.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Heap allocations made so far by this process (every operator new call,
/// from any layer or thread; harness.cpp replaces the global operator).
[[nodiscard]] std::uint64_t allocs_now();

/// In-memory span recorder: name, start, end and parent in host ns since the
/// recorder was made.  Spans nest through an open-span stack, so it is
/// single-threaded by design: only the benchmark's main thread records.
/// Past `capacity` spans further ones are counted as dropped, not stored.
class Tracer {
 public:
  static constexpr std::uint32_t kNoSpan = 0xffffffffU;

  explicit Tracer(std::size_t capacity);

  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);

  /// Write every recorded span as CSV (id,parent,name,start_ns,end_ns).
  /// Returns false if the file could not be written.
  bool write_csv(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  struct Rec {
    const char* name;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  std::vector<Rec> spans_;
  std::vector<std::uint32_t> open_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  Clock::time_point origin_;
};

/// The recorder spans go to, or nullptr when the run is untraced (then a
/// span costs one branch).
[[nodiscard]] Tracer* tracer();
void set_tracer(Tracer* t);

/// RAII span on the installed recorder.
class Span {
 public:
  explicit Span(const char* name) : t_(tracer()) {
    if (t_ != nullptr) id_ = t_->begin(name);
  }
  ~Span() { close(); }
  /// End the span before scope exit (idempotent).
  void close() {
    if (t_ != nullptr) t_->end(id_);
    t_ = nullptr;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  std::uint32_t id_ = Tracer::kNoSpan;
};

/// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// a / b, or 0 when b is 0 (per-request ratios on workloads that bypass a
/// layer).
[[nodiscard]] inline double ratio(double a, double b) {
  return b != 0.0 ? a / b : 0.0;
}

}  // namespace perfbench
