// Declarative parallel Monte-Carlo sweep engine.
//
// Every evaluation in the paper is a sweep: a grid of scenario axes
// (fault ratio x TP size x architecture x ...) with many random trials per
// grid cell. This engine replaces the hand-rolled serial loops of the bench
// binaries with one declarative API:
//
//   SweepSpec spec;
//   spec.seed = 14;
//   spec.trials = 200;
//   spec.axes = {Axis::of_values("Fault ratio", {0.0, 0.01, 0.05}),
//                Axis::of_labels("Arch", {"IHBD", "NVL-72"})};
//   SweepResult res = run_sweep(spec, trial_fn, threads);
//
// Each (cell, trial) pair draws from its own RNG substream derived from
// (spec.seed, global trial index), so the result is bit-identical for any
// thread count or execution order. The unit of parallel work on the
// ThreadPool is one (cell, trial) pair, so the trials of one cell run on
// several workers at once; each result waits in its own slot, and the
// worker that finishes a cell's last trial folds the cell in trial order
// and stores it in the result grid.
//
// A trial may return NaN to mark its cell "not applicable" (e.g. an
// architecture that cannot host the requested TP size); such cells stay
// empty and reports skip them.
//
// The scalar path above is a thin adapter over the generic engine,
// run_sweep_reduce: trials may return ANY result type, folded in trial
// order into a user-supplied per-cell accumulator as fold(acc, result).
// That is how the trace-replay benches carry a full TraceWasteResult (time
// series + summary) per grid cell instead of one double per trial:
//
//   auto res = run_sweep_reduce(spec, topo::TraceWasteResult{},
//       [&](const Scenario& s, Rng&) { return replay(s); },
//       [](topo::TraceWasteResult& acc, topo::TraceWasteResult&& r) {
//         acc = std::move(r);
//       },
//       threads);
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/accumulate.h"
#include "src/runtime/sweep_spec.h"
#include "src/runtime/thread_pool.h"

namespace ihbd::runtime {

/// Outcome of a sweep: one accumulator of user-chosen type per grid cell,
/// row-major in the axis order of the spec.
template <typename Acc>
struct GenericSweepResult {
  SweepSpec spec;
  std::vector<Acc> cells;

  std::size_t flat_index(const std::vector<std::size_t>& idx) const {
    return flat_cell_index(spec, idx);
  }
  const Acc& cell(const std::vector<std::size_t>& idx) const {
    return cells[flat_index(idx)];
  }
};

/// Scalar sweeps fold into the running-moments Accumulator.
using SweepResult = GenericSweepResult<Accumulator>;

/// One Monte-Carlo trial: observe the scenario, draw from rng, return the
/// sample (NaN = cell not applicable).
using TrialFn = std::function<double(const Scenario&, Rng&)>;

namespace detail {

/// Sweep-engine metrics (src/obs). Handles are interned once; recording is
/// skipped unless obs is enabled, so the engine's determinism and
/// throughput are untouched.
///   sweep.cells         — cells folded, each counted once;
///   sweep.trials        — trials run, each counted once;
///   sweep.cell_ns       — the sum of trial-body wall ns, whichever thread
///                         ran each trial (so busy time / (threads x wall)
///                         stays a pool-utilisation measure when the trials
///                         of one cell overlap);
///   sweep.trial_seconds — one observation per trial body.
/// Every trial body also emits one `sweep_trial` span, so a --trace-out
/// timeline shows the trials of one cell side by side.
struct SweepObs {
  obs::Counter& cells;
  obs::Counter& trials;
  obs::Counter& cell_ns;
  obs::Histogram& trial_seconds;
};
inline SweepObs& sweep_obs() {
  static SweepObs o{obs::counter("sweep.cells"), obs::counter("sweep.trials"),
                    obs::counter("sweep.cell_ns"),
                    obs::histogram("sweep.trial_seconds")};
  return o;
}

/// What `trial` returns for one (cell, trial) pair.
template <typename Trial>
using TrialResult = std::decay_t<std::invoke_result_t<
    Trial&, const Scenario&, Rng&>>;

/// Run one (cell, trial) pair on its own RNG substream.
template <typename Trial>
TrialResult<Trial> run_trial(const SweepSpec& spec, const Scenario& scenario,
                             Trial& trial) {
  IHBD_TRACE_SPAN("sweep_trial");
  const bool obs_on = obs::enabled();
  const auto t0 = obs_on ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  Rng rng = trial_rng(spec, scenario.cell(), scenario.trial());
  TrialResult<Trial> result = trial(scenario, rng);
  if (obs_on) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    SweepObs& o = sweep_obs();
    o.trials.add(1);
    o.cell_ns.add(static_cast<std::uint64_t>(ns));
    o.trial_seconds.observe(static_cast<double>(ns) * 1e-9);
  }
  return result;
}

inline void note_cell_folded() {
  if (obs::enabled()) sweep_obs().cells.add(1);
}

/// The execute stage: run every trial of every cell on the pool and store
/// each folded cell in `cells`. parallel_for index u runs trial u % trials
/// of cell u / trials, so the trials of one cell overlap on idle workers,
/// and with one trial per cell the schedule is one index per cell. Each
/// trial's result waits in its own slot; the worker that finishes a cell's
/// last trial folds that cell's slots, in trial order, into a fresh copy of
/// `init` and stores it. Every fold thus sees the sequence a serial loop
/// would — bit-identical for any thread count, with no merge step.
template <typename Acc, typename Trial, typename Fold>
void run_cells(const SweepSpec& spec, const Acc& init, Trial& trial,
               Fold& fold, std::vector<Acc>& cells, const PoolRef& pool_ref) {
  const auto trials = static_cast<std::size_t>(spec.trials);
  std::vector<std::optional<TrialResult<Trial>>> slots(cells.size() * trials);
  std::vector<std::atomic<std::size_t>> finished(cells.size());
  pool_ref->parallel_for(slots.size(), [&](std::size_t u) {
    const std::size_t cell = u / trials;
    const std::vector<std::size_t> idx = decode_cell(spec, cell);
    const int t = static_cast<int>(u % trials);
    slots[u].emplace(run_trial(spec, Scenario(spec, cell, idx, t), trial));
    // The last finisher of a cell sees every other trial's slot write.
    if (finished[cell].fetch_add(1) + 1 < trials) return;
    Acc acc = init;
    for (std::size_t k = 0; k < trials; ++k) {
      std::optional<TrialResult<Trial>>& slot = slots[cell * trials + k];
      fold(acc, std::move(*slot));
      slot.reset();
    }
    note_cell_folded();
    cells[cell] = std::move(acc);
  });
}

}  // namespace detail

/// Generic reduce engine: run every (cell, trial) on a thread pool and fold
/// each trial's result into that cell's accumulator, strictly in trial
/// order within a cell. `init` seeds every cell (copied). `fold` is invoked
/// as fold(acc, result). (cell, trial) pairs are distributed
/// dynamically — trials of one cell may run concurrently, so `trial` must
/// only write state owned by its (cell, trial) — and because every trial
/// draws from its own substream and folds in trial order, results are
/// bit-identical for any thread count.
///
/// Execution substrate: an explicit `pool` wins (a trial may fan out on the
/// same pool; its joiner helps run the queued work, so nesting cannot
/// deadlock). With pool == nullptr the sweep owns a pool of `threads`
/// workers for the call (0 = ThreadPool::default_threads()).
template <typename Acc, typename Trial, typename Fold>
GenericSweepResult<Acc> run_sweep_reduce(const SweepSpec& spec, Acc init,
                                         Trial&& trial, Fold&& fold,
                                         int threads = 0,
                                         ThreadPool* pool = nullptr) {
  detail::validate_spec(spec);
  GenericSweepResult<Acc> result;
  result.spec = spec;
  result.cells.assign(spec.cell_count(), init);
  detail::run_cells(spec, init, trial, fold, result.cells,
                    PoolRef(threads, pool));
  return result;
}

/// Scalar sweep: a thin adapter over run_sweep_reduce with an Accumulator
/// per cell (NaN results leave the cell untouched). Bit-identical to the
/// pre-generic engine for any thread count; same pool/threads resolution as
/// run_sweep_reduce.
SweepResult run_sweep(const SweepSpec& spec, const TrialFn& fn,
                      int threads = 0, ThreadPool* pool = nullptr);

}  // namespace ihbd::runtime
