#include "src/runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "src/common/contracts.h"
#include "src/obs/metrics.h"

namespace ihbd::runtime {

namespace {
/// Nanoseconds between two steady_clock points; taken only when obs is on.
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

/// The join state of one parallel_for call. It lives on the caller's frame;
/// queued runners point at it, and the caller joins every runner before
/// returning.
struct ThreadPool::Fork {
  Fork(const std::function<void(std::size_t)>& body, std::size_t n,
       std::size_t grain)
      : body(body), n(n), grain(grain) {}

  /// Claim and run chunks until the range is exhausted or a body threw.
  /// Never throws: the first exception is kept for the caller.
  void run_chunks() noexcept {
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t begin =
            next.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) return;
        const std::size_t end = std::min(n, begin + grain);
        for (std::size_t i = begin; i < end; ++i) body(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  }

  const std::function<void(std::size_t)>& body;
  const std::size_t n;
  const std::size_t grain;
  std::atomic<std::size_t> next{0};     ///< claim cursor
  std::atomic<std::size_t> pending{0};  ///< queued runners not yet finished
  std::atomic<bool> failed{false};      ///< cancels the remaining chunks
  std::mutex error_mu;
  std::exception_ptr error;  ///< first exception; guarded by error_mu
};

int ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  IHBD_EXPECTS(threads >= 1);
  // Resolve the metric handles BEFORE any worker starts.
  obs_ = ObsRefs{&obs::counter("pool.tasks_executed"),
                 &obs::counter("pool.tasks_queued"),
                 &obs::counter("pool.wake_signals"),
                 &obs::counter("pool.busy_ns"),
                 &obs::counter("pool.idle_ns"),
                 &obs::gauge("pool.queue_depth"),
                 &obs::gauge("pool.wake_epoch")};
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] {
      help_until([this] { return stop_.load(); });
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
    ++wake_epoch_;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Runners are only ever queued inside a parallel_for, which joins them
  // before it returns; one still queued means the pool died mid-call.
  IHBD_EXPECTS(queue_.empty());
}

void ThreadPool::signal() {
  std::uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    epoch = ++wake_epoch_;
  }
  if (obs::enabled()) {
    obs_.wake_signals->add(1);
    obs_.wake_epoch->set(static_cast<double>(epoch));
  }
  wake_cv_.notify_all();
}

void ThreadPool::enqueue(Fork* fork, std::size_t copies) {
  fork->pending.fetch_add(copies, std::memory_order_relaxed);
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.insert(queue_.end(), copies, fork);
    depth = queue_.size();
  }
  if (obs::enabled()) {
    obs_.queued->add(copies);
    obs_.queue_depth->set(static_cast<double>(depth));
  }
  signal();
}

bool ThreadPool::try_run_one() {
  Fork* fork;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.empty()) return false;
    fork = queue_.front();
    queue_.pop_front();
  }
  const bool obs_on = obs::enabled();
  const auto t0 = obs_on ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  fork->run_chunks();
  if (obs_on) {
    obs_.executed->add(1);
    obs_.busy_ns->add(elapsed_ns(t0));
  }
  // Once pending hits zero the joiner may return and free `fork`; only
  // pool-owned state below.
  fork->pending.fetch_sub(1, std::memory_order_acq_rel);
  signal();
  return true;
}

template <typename Done>
void ThreadPool::help_until(const Done& done) {
  while (!done()) {
    if (try_run_one()) continue;
    std::uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      epoch = wake_epoch_;
    }
    // Re-check after the snapshot: anything made visible before it is found
    // here; anything after it moves the epoch and cancels the sleep.
    if (done()) return;
    if (try_run_one()) continue;
    const bool obs_on = obs::enabled();
    const auto t0 = obs_on ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait(lock, [&] { return wake_epoch_ != epoch || done(); });
    }
    if (obs_on) obs_.idle_ns->add(elapsed_ns(t0));
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t grain =
      std::max<std::size_t>(1, n / (workers_.size() * 8));
  Fork fork(body, n, grain);
  // One queued runner per worker that could usefully help; the caller
  // runs chunks as the +1'th. Runners that lose the race to an exhausted
  // cursor return immediately.
  const std::size_t chunks = (n + grain - 1) / grain;
  enqueue(&fork, std::min<std::size_t>(workers_.size(), chunks));
  fork.run_chunks();
  help_until([&fork] {
    return fork.pending.load(std::memory_order_acquire) == 0;
  });
  if (fork.error) std::rethrow_exception(fork.error);
}

}  // namespace ihbd::runtime
