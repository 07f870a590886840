#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

// ---- allocation counter ------------------------------------------------------
//
// Global replacement for this binary only: every heap allocation bumps one
// relaxed atomic (forest shards allocate on pool workers, hence atomic).

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

// ---- spans -------------------------------------------------------------------

namespace {
Tracer* g_tracer = nullptr;
}  // namespace

Tracer* tracer() { return g_tracer; }
void set_tracer(Tracer* t) { g_tracer = t; }

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity), origin_(Clock::now()) {
  spans_.reserve(capacity);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t Tracer::begin(const char* name) {
  std::uint32_t parent = open_.empty() ? kNoSpan : open_.back();
  std::uint32_t id = kNoSpan;
  if (spans_.size() < capacity_) {
    id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Rec{name, parent, now_ns(), -1});
  } else {
    ++dropped_;
  }
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  if (!open_.empty()) open_.pop_back();
  if (id != kNoSpan) spans_[id].end_ns = now_ns();
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# spans=%zu dropped=%llu\nid,parent,name,start_ns,end_ns\n",
               spans_.size(), static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (r.parent == kNoSpan) {
      std::fprintf(f, "%zu,,%s,%lld,%lld\n", i, r.name,
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    } else {
      std::fprintf(f, "%zu,%u,%s,%lld,%lld\n", i, r.parent, r.name,
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// ---- statistics --------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double pos = std::ceil(q * static_cast<double>(v.size()));
  std::size_t k = pos < 1.0 ? 0 : static_cast<std::size_t>(pos) - 1;
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

}  // namespace perfbench
