#pragma once

// Deterministic parallel execution of independent simulation runs.
//
// Every randomized component of the repo draws from an explicitly seeded
// `Rng`, so a run is a pure function of its seed — which makes replicated
// sweeps (benches, fuzzing, soaks) embarrassingly parallel.  The pieces:
//
//   * `ThreadPool(jobs)`: a fork-join pool of `jobs` participants — the
//     caller of `for_each` plus `jobs - 1` persistent threads.  A round
//     publishes its work by bumping an epoch counter; participant p runs
//     index p first, then claims further indices from a shared atomic
//     counter, and the caller returns once a pending counter reaches
//     zero.  No queue, no per-task `std::function`, no mutex.  With
//     n <= jobs, index p therefore always runs on the same thread (the
//     forest's shard s stays on one worker), and n >> jobs still balances.
//
//   * Waiting spins in short `pause` bursts with `std::this_thread::yield`
//     between them for a fixed budget, then blocks in
//     `std::atomic::wait`.  Spinning keeps a window barrier at ~1 µs
//     instead of a futex round trip; the yield is what makes spinning
//     safe when participants outnumber free hardware threads — a pure
//     `pause` spin let two participants placed on one vCPU starve each
//     other (docs/PERFORMANCE.md "Forest window barrier").
//
//   * `for_each_index(n, jobs, fn)`: run fn(0..n-1) across `jobs`
//     participants.  With jobs <= 1 (or n <= 1) it runs inline, in index
//     order, with no threads — the serial path IS the parallel path's
//     specification.  Exceptions are collected per index and the
//     *lowest-index* one is rethrown after all indices finish, so failure
//     reporting does not depend on scheduling.
//
//   * `parallel_for_runs(n, jobs, base_seed, fn)`: `for_each_index` plus
//     deterministic seed derivation — run i receives the i-th generator of
//     an `Rng(base_seed).split()` chain, so its random stream depends only
//     on (base_seed, i), never on `jobs` or on which participant ran it.
//     Results are bit-identical to serial execution by construction.
//
// The event loop inside each run stays single-threaded; parallelism exists
// only *between* runs and between forest shards (shared-nothing
// replication, docs/PERFORMANCE.md "Threading model").

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace dyncon::util {

/// Fork-join pool: `jobs`-way parallelism from `jobs - 1` threads plus the
/// caller of `for_each`.  One `for_each` at a time; `fn` must not call
/// back into the same pool.  `fn` runs on the calling thread for some
/// indices (index 0 always), so state it needs per index that lives in
/// thread-locals — an installed obs::Registry, say — must be installed
/// inside `fn`, as bench::parallel_sweep does.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned jobs);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run fn(i) for every i in [0, n) across this pool's participants and
  /// return once all have finished (a barrier).  Exceptions are collected
  /// per index and the lowest-index one is rethrown, exactly like
  /// for_each_index — but the threads are REUSED, so a caller that
  /// barriers many times (the forest runtime's virtual-time windows) pays
  /// for thread creation once, not once per barrier.
  void for_each(std::uint64_t n, const std::function<void(std::uint64_t)>& fn);

  /// Usable parallelism on this machine (>= 1 even when the runtime cannot
  /// tell): the default for every --jobs flag.
  static unsigned hardware_jobs();

 private:
  /// One participant's first failure of the current round (lowest index
  /// it saw throw).  Padded so participants never share a cache line.
  struct alignas(64) Lane {
    std::uint64_t error_index = 0;
    std::exception_ptr error;
  };

  void worker_loop(unsigned p);
  /// Participant p's share of the round: index p, then claimed indices.
  void run_share(unsigned p);
  /// Wake every worker with stop_ set and join them.
  void shutdown();

  // Written by the caller before it bumps epoch_, read by the workers
  // after they see the bump.
  const std::function<void(std::uint64_t)>* fn_ = nullptr;
  std::uint64_t n_ = 0;
  bool stop_ = false;
  std::vector<Lane> lanes_;  // one per participant; [0] is the caller
  alignas(64) std::atomic<std::uint32_t> epoch_{0};    // workers wait here
  alignas(64) std::atomic<std::uint64_t> next_{0};     // next unclaimed index
  alignas(64) std::atomic<std::uint32_t> pending_{0};  // the caller waits here
  std::vector<std::thread> threads_;  // last: the workers use all of the above
};

/// Run fn(i) for every i in [0, n) across up to `jobs` participants.
/// Inline and in index order when jobs <= 1 or n <= 1.  If any invocations
/// throw, the one with the lowest index is rethrown after all n finish —
/// identical to what a serial sweep that ran everything would report.
void for_each_index(std::uint64_t n, unsigned jobs,
                    const std::function<void(std::uint64_t)>& fn);

/// Derive the n per-run generators of the `Rng(base_seed).split()` chain.
/// Run i's generator depends only on (base_seed, i): the chain is what a
/// serial loop splitting one parent would have produced.
std::vector<Rng> derive_run_rngs(std::uint64_t base_seed, std::uint64_t n);

/// Replicated-run helper: fn(i, rng_i) with rng_i from derive_run_rngs.
/// Scheduling-independent by construction — results depend only on
/// (base_seed, i), never on `jobs`.
void parallel_for_runs(std::uint64_t n, unsigned jobs,
                       std::uint64_t base_seed,
                       const std::function<void(std::uint64_t, Rng)>& fn);

}  // namespace dyncon::util
