#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>

namespace dyncon::util {

namespace {

/// How long a waiter spins before it blocks.  Longer than a forest
/// window's serial exchange (tens of µs), so shard workers stay awake from
/// one window to the next; short enough that an idle pool costs nothing
/// measurable.
constexpr auto kSpinBudget = std::chrono::microseconds(250);
constexpr int kPausesPerBurst = 64;

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Wait until `a` no longer holds `old` and return what it holds: `pause`
/// bursts with a yield between them, then std::atomic::wait once the spin
/// budget is spent.  The yield lets a descheduled participant sharing this
/// hardware thread run, which a pure `pause` spin would starve.
template <typename T>
T await_change(const std::atomic<T>& a, T old) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (;;) {
    for (int i = 0; i < kPausesPerBurst; ++i) {
      const T v = a.load(std::memory_order_acquire);
      if (v != old) return v;
      cpu_pause();
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::yield();
  }
  for (;;) {
    a.wait(old, std::memory_order_acquire);
    const T v = a.load(std::memory_order_acquire);
    if (v != old) return v;
  }
}

}  // namespace

ThreadPool::ThreadPool(unsigned jobs) : lanes_(std::max(1u, jobs)) {
  threads_.reserve(lanes_.size() - 1);
  try {
    for (unsigned p = 1; p < lanes_.size(); ++p) {
      threads_.emplace_back([this, p] { worker_loop(p); });
    }
  } catch (...) {
    shutdown();  // join the threads already started before unwinding
    throw;
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  stop_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& t : threads_) t.join();
}

unsigned ThreadPool::hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::worker_loop(unsigned p) {
  std::uint32_t seen = 0;  // epoch_'s initial value
  for (;;) {
    seen = await_change(epoch_, seen);
    if (stop_) return;
    run_share(p);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

void ThreadPool::run_share(unsigned p) {
  Lane& lane = lanes_[p];
  auto run = [&](std::uint64_t i) {
    try {
      (*fn_)(i);
    } catch (...) {
      // A participant's indices increase, so its first failure is its
      // lowest.
      if (!lane.error) {
        lane.error_index = i;
        lane.error = std::current_exception();
      }
    }
  };
  if (p < n_) run(p);
  if (n_ <= lanes_.size()) return;  // every index was someone's first
  for (std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
       i < n_; i = next_.fetch_add(1, std::memory_order_relaxed)) {
    run(i);
  }
}

void ThreadPool::for_each(std::uint64_t n,
                          const std::function<void(std::uint64_t)>& fn) {
  if (n == 0) return;
  fn_ = &fn;
  n_ = n;
  // One index, or no threads: the caller runs every index, in order.
  const bool fan_out = n > 1 && !threads_.empty();
  next_.store(fan_out ? lanes_.size() : 1, std::memory_order_relaxed);
  if (fan_out) {
    pending_.store(static_cast<std::uint32_t>(threads_.size()),
                   std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);  // publishes the above
    epoch_.notify_all();
  }
  run_share(0);
  if (fan_out) {
    for (std::uint32_t left = pending_.load(std::memory_order_acquire);
         left != 0;) {
      left = await_change(pending_, left);
    }
  }
  fn_ = nullptr;
  // Lowest failing index across participants, whoever ran it.
  Lane* lowest = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.error && (lowest == nullptr ||
                       lane.error_index < lowest->error_index)) {
      lowest = &lane;
    }
  }
  std::exception_ptr err = lowest != nullptr ? lowest->error : nullptr;
  for (Lane& lane : lanes_) lane.error = nullptr;
  if (err) std::rethrow_exception(err);
}

void for_each_index(std::uint64_t n, unsigned jobs,
                    const std::function<void(std::uint64_t)>& fn) {
  if (n == 0) return;
  // Exceptions are recorded per index and the lowest-index one rethrown, so
  // the reported failure is the same whatever the participant count; with
  // one participant the pool starts no thread and runs inline, in order.
  ThreadPool pool(static_cast<unsigned>(
      std::min<std::uint64_t>(std::max(jobs, 1u), n)));
  pool.for_each(n, fn);
}

std::vector<Rng> derive_run_rngs(std::uint64_t base_seed, std::uint64_t n) {
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(n));
  Rng parent(base_seed);
  for (std::uint64_t i = 0; i < n; ++i) rngs.push_back(parent.split());
  return rngs;
}

void parallel_for_runs(std::uint64_t n, unsigned jobs,
                       std::uint64_t base_seed,
                       const std::function<void(std::uint64_t, Rng)>& fn) {
  const std::vector<Rng> rngs = derive_run_rngs(base_seed, n);
  for_each_index(n, jobs, [&](std::uint64_t i) {
    fn(i, rngs[static_cast<std::size_t>(i)]);
  });
}

}  // namespace dyncon::util
