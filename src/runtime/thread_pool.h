// Work-stealing task scheduler with true nested parallelism. The pool is
// the execution substrate of the sweep engine (src/runtime/sweep.h) and of
// the windowed trace replay (src/topo/waste.h); because both levels can
// share ONE pool, a sweep over a few expensive cells no longer strands the
// remaining cores — each cell's inner fan-out is stealable by idle workers.
//
// Design:
//   * Every worker owns a deque of tasks. The owner pushes and pops at the
//     back (LIFO, so the innermost fork runs first and stays cache-hot);
//     thieves steal from the front (FIFO, so they take the oldest — i.e.
//     largest — pending piece of work). Threads that are not pool workers
//     submit into a shared injection queue.
//   * TaskGroup is the fork/join primitive: run() forks a task into the
//     scheduler, wait() joins. A blocked joiner HELPS instead of sleeping:
//     it executes tasks from its own deque and steals from peers, so a
//     nested parallel_for inside a pool task recruits the whole machine
//     rather than serializing (and cannot deadlock — the joiner itself
//     drains the very tasks it waits on).
//   * Exceptions thrown by a task are captured into its owning TaskGroup
//     and the first one (in completion order) is rethrown at wait(); tasks
//     enqueued with ThreadPool::submit() belong to an internal root group
//     whose exception is rethrown at wait_idle().
//
// Determinism contract: parallel_for(n, body) invokes body exactly once for
// every index in [0, n); which thread runs which index — and therefore the
// steal order — is unspecified, so bodies must only write state owned by
// their index (typically a pre-sized results slot). Under that discipline
// results are bit-identical for any worker count, nesting depth and steal
// order. The contract composes: a nested parallel_for's bodies own their
// (outer index, inner index) slots.
//
// When to pass an explicit pool vs shared(): shared() is the process-wide
// lazily-created pool sized to the hardware — the right default for
// everything that just wants the machine (and what the sweep engine and
// trace replay use when given no pool). Construct a dedicated ThreadPool
// only to pin a specific width (e.g. the benches' --threads N flag, or a
// test that needs a 1-worker pool); pass that same pool to BOTH fan-out
// levels so they cooperate instead of oversubscribing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace ihbd::obs {
class Counter;
class Gauge;
}  // namespace ihbd::obs

namespace ihbd::runtime {

class ThreadPool;

/// Fork/join primitive. run() enqueues a task; wait() blocks until every
/// task run() so far has finished, executing and stealing tasks itself
/// while it waits, then rethrows the first exception any of them threw.
/// A group is reusable after wait() returns (or throws). The destructor
/// joins outstanding tasks but drops their exceptions — call wait() to
/// observe them. A TaskGroup may be forked/joined from any thread,
/// including another task of the same pool (nested fork/join).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(&pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Fork: enqueue task on the pool (onto the calling worker's own deque
  /// when called from a pool task, else onto the injection queue).
  void run(std::function<void()> task);

  /// Join: helps until every forked task finished, then rethrows the first
  /// captured exception (clearing it, so the group can be reused).
  void wait();

  /// True once any task of this group has thrown and the exception has not
  /// yet been consumed by wait(). Cooperative-cancellation hook: long loops
  /// inside tasks may poll it and bail early.
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  /// Record an exception as if a task of this group had thrown it (first
  /// one wins). Used by callers that participate in the work themselves,
  /// e.g. parallel_for's calling thread.
  void capture(std::exception_ptr error);

 private:
  friend class ThreadPool;

  ThreadPool* pool_;
  std::atomic<std::size_t> pending_{0};  ///< forked, not yet finished
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;  ///< guarded by error_mu_
};

class ThreadPool {
 public:
  /// threads == 0 picks hardware_concurrency (at least 1). Workers start
  /// immediately and live until destruction.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Hardware concurrency with a floor of 1 (hardware_concurrency may
  /// report 0 on exotic platforms).
  static int default_threads();

  /// The lazily-created process-wide pool (default_threads() workers).
  /// Everything that does not need a specific width should fan out here so
  /// nested fan-outs cooperate on one set of workers.
  static ThreadPool& shared();

  /// Run body(i) for every i in [0, n), fanned across the pool; blocks the
  /// caller until all indices finish, helping with the work itself (with a
  /// 1-worker pool the caller alone makes progress). Work is claimed
  /// dynamically in chunks of `grain` indices; grain == 0 (the default)
  /// derives a grain from n / (workers * 8), clamped to >= 1, so cheap
  /// bodies do not contend on the claim cursor while uneven per-index cost
  /// still balances. Results are identical for every grain. If any body
  /// throws, the first exception (in completion order) is rethrown here
  /// after remaining chunks are cancelled; the pool stays usable.
  /// Fully re-entrant: calling it from inside another parallel_for body on
  /// the same pool fans the inner range across idle workers too.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t grain = 0);

  /// Enqueue one fire-and-forget task; returns immediately. An escaping
  /// exception is captured (first one wins) and rethrown by the next
  /// wait_idle(). Use TaskGroup or parallel_for for scoped fan-out.
  void submit(std::function<void()> task);

  /// Block until no task is queued or running anywhere in the pool,
  /// helping with queued work meanwhile; then rethrows the first exception
  /// that escaped a submit()ted task since the last wait_idle().
  void wait_idle();

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };
  struct Worker;

  void worker_loop(std::size_t self);
  void enqueue(Task task);
  /// Pop own-deque back / injection front / steal a peer's front; run it.
  bool try_run_one();
  bool pop_task(Task& out);
  void run_task(Task&& task);
  /// Bump the wake epoch and wake sleepers (enqueue and task completion).
  void signal(bool assert_not_stopped);
  /// Help-then-sleep until done() (which must become true only via task
  /// completions or enqueues, both of which bump the wake epoch).
  void help_until(const std::function<bool()>& done);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex inject_mu_;
  std::deque<Task> inject_;  ///< tasks from non-worker threads (FIFO)

  // Sleep/wake protocol: every enqueue and every task completion bumps
  // wake_epoch_ under wake_mu_ and notifies. A sleeper snapshots the epoch,
  // re-scans for work, and only then waits for the epoch to move — so a
  // task made visible before the re-scan is found, and one made visible
  // after it moves the epoch past the snapshot. No timed waits needed.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::uint64_t wake_epoch_ = 0;  ///< guarded by wake_mu_
  bool stop_ = false;             ///< guarded by wake_mu_

  std::atomic<std::size_t> in_flight_{0};  ///< enqueued or running tasks
  TaskGroup root_;                         ///< owns submit()ted tasks

  // Observability handles (src/obs), resolved once at construction — every
  // recording call is a relaxed branch while obs is disabled (the default),
  // so the scheduler hot path stays unperturbed. All pools aggregate into
  // the same named metrics ("pool.*").
  struct ObsRefs {
    obs::Counter* executed = nullptr;       ///< tasks run to completion
    obs::Counter* stolen = nullptr;         ///< tasks taken from a peer deque
    obs::Counter* steal_attempts = nullptr; ///< peer-deque scans started
    obs::Counter* steal_failures = nullptr; ///< scans that found nothing
    obs::Counter* injected = nullptr;       ///< tasks from non-worker threads
    obs::Counter* wake_signals = nullptr;   ///< wake-epoch bumps
    obs::Counter* busy_ns = nullptr;        ///< wall time inside task bodies
    obs::Counter* idle_ns = nullptr;        ///< wall time asleep on wake_cv_
    obs::Gauge* inject_depth = nullptr;     ///< injection-queue depth sample
    obs::Gauge* wake_epoch = nullptr;       ///< latest wake epoch sample
  };
  ObsRefs obs_;
};

/// Owns-or-borrows resolution of the stack-wide pool convention (the bench
/// --threads flag, run_sweep*'s threads, TraceReplayOptions::threads): an
/// explicit `pool` wins (borrowed); otherwise threads == 0 borrows the
/// process-wide shared() pool and threads > 0 owns a dedicated pool of
/// that width for the PoolRef's lifetime. The single home of this policy —
/// the sweep engine, the trace replay and the benches all resolve through
/// it instead of re-implementing the branches.
class PoolRef {
 public:
  explicit PoolRef(int threads, ThreadPool* pool = nullptr)
      : owned_(pool != nullptr || threads == 0
                   ? nullptr
                   : std::make_unique<ThreadPool>(threads)),
        pool_(pool != nullptr ? pool
              : owned_        ? owned_.get()
                              : &ThreadPool::shared()) {}

  ThreadPool* get() const { return pool_; }
  ThreadPool& operator*() const { return *pool_; }
  ThreadPool* operator->() const { return pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
};

}  // namespace ihbd::runtime
