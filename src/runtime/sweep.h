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
// The engine is a plan -> execute -> reduce pipeline with a serializable
// boundary between the stages (src/runtime/shard.h):
//
//   plan    — shard::plan_shards partitions the grid into ShardSpecs,
//             deterministically from the spec alone.
//   execute — each (cell, trial) pair draws from its own RNG substream
//             derived from (spec.seed, global trial index), so the result
//             is bit-identical for any thread count, execution order, shard
//             count, or kill/resume history. One slot scheduler (run_cells)
//             executes for both paths: the unit of parallel work on the
//             ThreadPool is one (cell, trial) pair, so the trials of one
//             cell run on several workers at once; each result waits in
//             its own slot, and the worker that finishes a
//             cell's last trial folds the cell in trial order and hands it
//             to a per-cell completion step. Locally that step stores the
//             cell in the result grid; the durable (sharded) path
//             serializes it through a ShardCodec and, after every completed
//             cell, persists a versioned, checksummed checkpoint
//             (src/runtime/checkpoint.h) so a killed worker resumes
//             mid-shard.
//   reduce  — each shard's cells are placed back into the grid.
//
// The single-process path runs every cell through the same scheduler in
// place: no serialization, no files. The distributed path engages only
// when BOTH an ambient shard::ShardContext is installed (bench_util
// --shard-dir) AND the caller passes a ShardCodec — sweeps without a codec
// always run locally.
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
#include <cstdio>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/accumulate.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/shard.h"
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

/// Run one (cell, trial) pair on its own RNG substream. Every execution
/// path funnels each trial through here.
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

/// The one execute stage of both paths: run every trial of `cells` (flat
/// cell indices) on the pool. parallel_for index u runs trial u % trials of
/// cells[u / trials], so the trials of one cell overlap on idle workers,
/// and with one trial per cell the schedule is one index per cell. Each
/// trial's result waits in its own slot; the worker that finishes a cell's
/// last trial folds that cell's slots, in trial order, into a fresh copy of
/// `init` and passes (cell, acc) to `complete`. Every fold thus sees the
/// sequence a serial loop would — bit-identical for any thread count, with
/// no merge step. `complete` runs on pool workers, possibly concurrently.
template <typename Acc, typename Trial, typename Fold, typename Complete>
void run_cells(const SweepSpec& spec, const std::vector<std::size_t>& cells,
               const Acc& init, Trial& trial, Fold& fold, Complete& complete,
               const PoolRef& pool_ref) {
  const auto trials = static_cast<std::size_t>(spec.trials);
  std::vector<std::optional<TrialResult<Trial>>> slots(cells.size() * trials);
  std::vector<std::atomic<std::size_t>> finished(cells.size());
  pool_ref->parallel_for(slots.size(), [&](std::size_t u) {
    const std::size_t i = u / trials;
    const std::size_t cell = cells[i];
    const std::vector<std::size_t> idx = decode_cell(spec, cell);
    const int t = static_cast<int>(u % trials);
    slots[u].emplace(run_trial(spec, Scenario(spec, cell, idx, t), trial));
    // The last finisher of a cell sees every other trial's slot write.
    if (finished[i].fetch_add(1) + 1 < trials) return;
    Acc acc = init;
    for (std::size_t k = 0; k < trials; ++k) {
      std::optional<TrialResult<Trial>>& slot = slots[i * trials + k];
      fold(acc, std::move(*slot));
      slot.reset();
    }
    note_cell_folded();
    complete(cell, std::move(acc));
  });
}

/// Execute one shard durably: resume completed cells from the newest valid
/// checkpoint generation, run the rest through run_cells, persist a
/// checkpoint after every completed cell, and return the
/// complete encoded ShardPayload. Completed cells are held serialized
/// (codec bytes), so a checkpoint is a pure concatenation and resume needs
/// no re-execution. A failed checkpoint write is counted
/// (sweepd.checkpoint_write_failures), warned about once per shard on
/// stderr, and otherwise ignored: the published result, not the
/// checkpoint, is what makes the run durable.
template <typename Acc, typename Trial, typename Fold>
std::string execute_shard_durable(const SweepSpec& spec,
                                  const shard::ShardPlan& plan,
                                  const shard::ShardSpec& sh, const Acc& init,
                                  Trial& trial, Fold& fold,
                                  const shard::ShardCodec<Acc>& codec,
                                  shard::ShardContext& ctx,
                                  const PoolRef& pool_ref) {
  const std::string ckpt_path = ctx.checkpoint_path(sh.index);
  std::vector<std::optional<std::string>> done(sh.cells());

  if (!ckpt_path.empty()) {
    const checkpoint::Recovered rec = checkpoint::load_with_fallback(ckpt_path);
    if (rec.valid) {
      try {
        shard::ShardPayload saved = shard::decode_shard_payload(rec.payload);
        // A checkpoint from another plan (or another shard of this plan —
        // path collisions across runs) must not leak cells into this one.
        if (saved.plan_hash == plan.plan_hash && saved.shard_id == sh.id) {
          for (shard::ShardPayloadEntry& e : saved.entries) {
            if (e.cell >= sh.cell_begin && e.cell < sh.cell_end) {
              done[e.cell - sh.cell_begin] = std::move(e.acc_bytes);
            }
          }
          if (!saved.metrics.empty()) ctx.note_resumed_metrics(saved.metrics);
        }
      } catch (const ConfigError&) {
        // Frame was valid but the payload didn't decode: version skew.
        // Start the shard from scratch rather than trusting it.
      }
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (!done[i].has_value()) pending.push_back(sh.cell_begin + i);
  }

  auto build_payload = [&] {
    shard::ShardPayload payload;
    payload.plan_hash = plan.plan_hash;
    payload.shard_id = sh.id;
    payload.shard_index = sh.index;
    for (std::size_t i = 0; i < done.size(); ++i) {
      if (done[i].has_value()) {
        payload.entries.push_back({sh.cell_begin + i, *done[i]});
      }
    }
    if (obs::enabled()) {
      serde::Writer mw;
      obs::snapshot().save(mw);
      payload.metrics = mw.take();
    }
    return shard::encode_shard_payload(payload);
  };

  std::mutex mu;
  bool warned = false;
  auto complete = [&](std::size_t cell, Acc&& acc) {
    serde::Writer w;
    codec.save(w, acc);
    std::lock_guard<std::mutex> lock(mu);
    done[cell - sh.cell_begin] = w.take();
    ctx.note_progress(sh.index);
    if (!ckpt_path.empty() && !checkpoint::write(ckpt_path, build_payload()) &&
        !warned) {
      warned = true;
      std::fprintf(stderr,
                   "sweep: cannot write checkpoint %s; shard %zu continues "
                   "without one\n",
                   ckpt_path.c_str(), sh.index);
    }
  };
  run_cells(spec, pending, init, trial, fold, complete, pool_ref);

  return build_payload();
}

/// The reduce stage: validate shard payloads (in plan order) and place one
/// entry per cell into the result grid — a deserialize of exactly the
/// bytes the executor serialized, hence bit-identical to local execution.
template <typename Acc>
void reduce_shard_payloads(const shard::ShardPlan& plan,
                           const std::vector<std::string>& payloads,
                           const shard::ShardCodec<Acc>& codec,
                           std::vector<Acc>& cells) {
  if (payloads.size() != plan.shards.size()) {
    throw ConfigError("sweep reduce: expected " +
                      std::to_string(plan.shards.size()) + " shard results, got " +
                      std::to_string(payloads.size()));
  }
  std::vector<bool> placed(cells.size(), false);
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    const shard::ShardSpec& sh = plan.shards[i];
    shard::ShardPayload payload = shard::decode_shard_payload(payloads[i]);
    if (payload.plan_hash != plan.plan_hash || payload.shard_id != sh.id ||
        payload.shard_index != sh.index) {
      throw ConfigError("sweep reduce: shard result " + std::to_string(i) +
                        " does not match the plan");
    }
    // With the count equal to the shard's cells, rejecting out-of-range
    // and duplicate entries also rejects a missing cell.
    if (payload.entries.size() != sh.cells()) {
      throw ConfigError("sweep reduce: shard " + std::to_string(i) +
                        " result is incomplete");
    }
    for (shard::ShardPayloadEntry& e : payload.entries) {
      if (e.cell < sh.cell_begin || e.cell >= sh.cell_end) {
        throw ConfigError("sweep reduce: shard " + std::to_string(i) +
                          " entry outside its shard range");
      }
      if (placed[e.cell]) {
        throw ConfigError("sweep reduce: shard " + std::to_string(i) +
                          " lists cell " + std::to_string(e.cell) + " twice");
      }
      placed[e.cell] = true;
      serde::Reader r(e.acc_bytes);
      cells[e.cell] = codec.load(r);
      r.expect_done("shard accumulator");
    }
  }
}

/// The distributed composition: plan from the spec, claim-and-execute
/// shards through the transport until none are claimable, then poll for
/// the full result set and reduce. Every participant (worker or
/// coordinator) converges on the identical result grid.
template <typename Acc, typename Trial, typename Fold>
GenericSweepResult<Acc> run_sweep_sharded(const SweepSpec& spec, Acc init,
                                          Trial& trial, Fold& fold,
                                          const shard::ShardCodec<Acc>& codec,
                                          shard::ShardContext& ctx,
                                          int threads, ThreadPool* pool) {
  const shard::ShardPlan plan = shard::plan_shards(spec, ctx.policy());
  ctx.begin_sweep(plan);
  struct EndGuard {
    shard::ShardContext& ctx;
    ~EndGuard() { ctx.end_sweep(); }
  } guard{ctx};

  const PoolRef pool_ref(threads, pool);
  std::vector<std::string> payloads;
  for (;;) {
    bool progressed = false;
    if (ctx.executes()) {
      while (const std::optional<std::size_t> claimed = ctx.claim()) {
        progressed = true;
        const shard::ShardSpec& sh = plan.shards[*claimed];
        try {
          std::string payload = execute_shard_durable(
              spec, plan, sh, init, trial, fold, codec, ctx, pool_ref);
          ctx.publish_result(*claimed, std::move(payload));
        } catch (...) {
          ctx.release(*claimed);
          throw;
        }
      }
    }
    if (std::optional<std::vector<std::string>> all = ctx.try_collect()) {
      payloads = std::move(*all);
      break;
    }
    // Keep alternating claim and collect: a shard whose owner died becomes
    // claimable again once its lease goes stale, and this participant must
    // pick it up rather than wait forever.
    if (!progressed) ctx.poll_wait();
  }

  GenericSweepResult<Acc> result;
  result.spec = spec;
  result.cells.assign(spec.cell_count(), std::move(init));
  reduce_shard_payloads(plan, payloads, codec, result.cells);
  return result;
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
///
/// Distribution: when an ambient shard::ShardContext is installed
/// (bench_util --shard-dir) AND `codec` is non-null, the sweep runs as
/// plan -> claim/execute -> reduce across every participating process,
/// returning the identical result grid in each. Without a codec (or
/// without a context) the sweep runs every cell locally through the same
/// scheduler — byte-identical to the distributed result.
template <typename Acc, typename Trial, typename Fold>
GenericSweepResult<Acc> run_sweep_reduce(
    const SweepSpec& spec, Acc init, Trial&& trial, Fold&& fold,
    int threads = 0, ThreadPool* pool = nullptr,
    const shard::ShardCodec<Acc>* codec = nullptr) {
  detail::validate_spec(spec);
  if (shard::ShardContext* ctx = shard::context();
      ctx != nullptr && codec != nullptr) {
    return detail::run_sweep_sharded(spec, std::move(init), trial, fold,
                                     *codec, *ctx, threads, pool);
  }
  GenericSweepResult<Acc> result;
  result.spec = spec;
  result.cells.assign(spec.cell_count(), init);
  std::vector<std::size_t> cells(result.cells.size());
  std::iota(cells.begin(), cells.end(), std::size_t{0});
  auto store = [&](std::size_t cell, Acc&& acc) {
    result.cells[cell] = std::move(acc);
  };
  detail::run_cells(spec, cells, init, trial, fold, store,
                    PoolRef(threads, pool));
  return result;
}

/// Scalar sweep: a thin adapter over run_sweep_reduce with an Accumulator
/// per cell (NaN results leave the cell untouched). Bit-identical to the
/// pre-generic engine for any thread count; same pool/threads resolution as
/// run_sweep_reduce. Shardable out of the box (shard::accumulator_codec).
SweepResult run_sweep(const SweepSpec& spec, const TrialFn& fn,
                      int threads = 0, ThreadPool* pool = nullptr);

}  // namespace ihbd::runtime
