// Fork/join thread pool: one shared queue, helping joiners. The pool is the
// execution substrate of the sweep engine (src/runtime/sweep.h).
//
// The pool has one entry point, parallel_for, and is owned by its caller:
// PoolRef turns a --threads value into a pool for one call.
//
// Design:
//   * parallel_for(n, body) queues up to size() chunk runners and runs
//     chunks on the calling thread too. Every runner claims chunks of
//     indices from one shared cursor until the range is exhausted.
//   * Every runner goes through one FIFO queue, shared by the workers and
//     by blocked joiners.
//   * A blocked joiner HELPS instead of sleeping: it runs queued runners,
//     so a parallel_for called from inside a pool body still fans out
//     across idle workers (and cannot deadlock — the joiner itself drains
//     the very runners it waits on).
//
// Determinism contract: parallel_for(n, body) invokes body exactly once for
// every index in [0, n) unless a body throws; which thread runs which index
// is unspecified, so bodies must only write state owned by their index
// (typically a pre-sized results slot). Under that discipline results are
// bit-identical for any worker count and nesting depth. The contract
// composes: a nested parallel_for's bodies own their (outer index, inner
// index) slots.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ihbd::obs {
class Counter;
class Gauge;
}  // namespace ihbd::obs

namespace ihbd::runtime {

class ThreadPool {
 public:
  /// Starts `threads` (>= 1) workers, which live until destruction.
  explicit ThreadPool(int threads);
  /// Requires that no parallel_for is running on the pool.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Hardware concurrency with a floor of 1 (hardware_concurrency may
  /// report 0 on exotic platforms).
  static int default_threads();

  /// Run body(i) for every i in [0, n), fanned across the pool; blocks the
  /// caller until all indices finish, helping with the work itself (with a
  /// 1-worker pool the caller alone may make all the progress). Work is
  /// claimed dynamically in chunks of n / (workers * 8) indices, at least
  /// one, so cheap bodies do not contend on the claim cursor while uneven
  /// per-index cost still balances. If any body throws, the remaining
  /// chunks are cancelled, every runner is joined, and the first exception
  /// (in completion order) is rethrown here; the pool stays usable.
  /// Fully re-entrant: calling it from inside another parallel_for body on
  /// the same pool fans the inner range across idle workers too.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Fork;

  /// Queue `copies` runners of `fork` and wake sleepers.
  void enqueue(Fork* fork, std::size_t copies);
  /// Pop the queue's front runner and run it; false if the queue is empty.
  bool try_run_one();
  /// Bump the wake epoch and wake sleepers (enqueue and task completion).
  void signal();
  /// Run queued runners, sleeping while there are none, until done(). done()
  /// may turn true only through a task completion or the destructor, both
  /// of which bump the wake epoch. Workers help until stop_; a
  /// parallel_for caller helps until its own runners have finished.
  template <typename Done>
  void help_until(const Done& done);

  std::mutex queue_mu_;
  std::deque<Fork*> queue_;  ///< runners of every parallel_for (FIFO)

  // Sleep/wake protocol: every enqueue and every task completion bumps
  // wake_epoch_ under wake_mu_ and notifies. A sleeper snapshots the epoch,
  // re-scans for work, and only then waits for the epoch to move — so a
  // task made visible before the re-scan is found, and one made visible
  // after it moves the epoch past the snapshot. No timed waits needed.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::uint64_t wake_epoch_ = 0;   ///< guarded by wake_mu_
  std::atomic<bool> stop_{false};  ///< set under wake_mu_

  // Observability handles (src/obs), resolved once at construction — every
  // recording call is a relaxed branch while obs is disabled (the default),
  // so the scheduler hot path stays unperturbed. All pools aggregate into
  // the same named metrics ("pool.*").
  struct ObsRefs {
    obs::Counter* executed = nullptr;      ///< tasks run to completion
    obs::Counter* queued = nullptr;        ///< runners put on the queue
    obs::Counter* wake_signals = nullptr;  ///< wake-epoch bumps
    obs::Counter* busy_ns = nullptr;       ///< wall time inside task bodies
    obs::Counter* idle_ns = nullptr;       ///< wall time asleep on wake_cv_
    obs::Gauge* queue_depth = nullptr;     ///< queue depth sample
    obs::Gauge* wake_epoch = nullptr;      ///< latest wake epoch sample
  };
  ObsRefs obs_;

  std::vector<std::thread> workers_;  ///< last: they use every member above
};

/// The one place that turns the stack-wide --threads convention (the bench
/// flag, run_sweep*'s threads) into a pool: an explicit `pool` is borrowed;
/// otherwise the PoolRef owns a ThreadPool of `threads` workers (0 =
/// default_threads()) for its lifetime. The sweep engine and the benches
/// resolve through it instead of re-implementing the branches.
class PoolRef {
 public:
  explicit PoolRef(int threads, ThreadPool* pool = nullptr) : pool_(pool) {
    if (pool_ == nullptr) {
      owned_ = std::make_unique<ThreadPool>(
          threads == 0 ? ThreadPool::default_threads() : threads);
      pool_ = owned_.get();
    }
  }

  ThreadPool* get() const { return pool_; }
  ThreadPool& operator*() const { return *pool_; }
  ThreadPool* operator->() const { return pool_; }

 private:
  ThreadPool* pool_;
  std::unique_ptr<ThreadPool> owned_;
};

}  // namespace ihbd::runtime
