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
//             count, or kill/resume history; trials within one cell always
//             fold in trial order. Locally the unit of parallel work on the
//             work-stealing ThreadPool is one (cell, trial) pair, so the
//             trials of one cell run on several workers at once; each
//             result waits in its own slot until the cell's last trial
//             finishes, then the cell folds in trial order. Sharded
//             executors run whole cells (their checkpoints are per cell),
//             serialize per-cell state through a ShardCodec and
//             periodically persist versioned, checksummed checkpoints
//             (src/runtime/checkpoint.h) so a killed worker resumes
//             mid-shard.
//   reduce  — shard results fold back into the grid, order-respecting.
//
// The single-process path is the degenerate one-shard plan executed in
// place: no serialization, no files, byte-identical to the pre-pipeline
// engine. The distributed path engages only when BOTH an ambient
// shard::ShardContext is installed (bench_util --shard-dir) AND the caller
// passes a ShardCodec — sweeps without a codec always run locally.
//
// A trial may return NaN to mark its cell "not applicable" (e.g. an
// architecture that cannot host the requested TP size); such cells stay
// empty and reports skip them.
//
// The scalar path above is a thin adapter over the generic engine,
// run_sweep_reduce: trials may return ANY result type, folded in trial
// order into a user-supplied per-cell accumulator. That is how the
// trace-replay benches carry a full TraceWasteResult (time series +
// summary) per grid cell instead of one double per trial:
//
//   auto res = run_sweep_reduce<ReplayAcc>(spec, ReplayAcc{},
//       [&](const Scenario& s, Rng& rng) { return replay(s, rng); },
//       [](ReplayAcc& acc, ReplayFragment&& f) { acc.merge(std::move(f)); },
//       threads);
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
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

/// Scalar sweeps reduce into the mergeable moments Accumulator.
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

/// Fold one trial's result into its cell's accumulator, as fold(acc, r) or,
/// if `fold` accepts it, fold(acc, r, scenario).
template <typename Acc, typename Result, typename Fold>
void fold_trial(Acc& acc, Result&& result, const Scenario& scenario,
                Fold& fold) {
  if constexpr (std::is_invocable_v<Fold&, Acc&, Result&&, const Scenario&>) {
    fold(acc, std::forward<Result>(result), scenario);
  } else {
    fold(acc, std::forward<Result>(result));
  }
}

inline void note_cell_folded() {
  if (obs::enabled()) sweep_obs().cells.add(1);
}

/// Run trials [trial_begin, trial_end) of one cell on the calling thread,
/// folding each into `acc` as it finishes — the whole-cell unit of the
/// durable path, whose checkpoints are per cell.
template <typename Acc, typename Trial, typename Fold>
void run_cell_into(const SweepSpec& spec, std::size_t cell, int trial_begin,
                   int trial_end, Acc& acc, Trial& trial, Fold& fold) {
  const std::vector<std::size_t> idx = decode_cell(spec, cell);
  for (int t = trial_begin; t < trial_end; ++t) {
    const Scenario scenario(spec, cell, idx, t);
    fold_trial(acc, run_trial(spec, scenario, trial), scenario, fold);
  }
  note_cell_folded();
}

/// Execute one shard directly into the result grid (the local path: no
/// serialization boundary). The unit of parallel work is one (cell, trial)
/// pair: parallel_for index u runs trial u % trials of cell u / trials, so
/// the trials of one cell overlap on idle workers, and with one trial per
/// cell the schedule is one index per cell. Each trial's result waits in
/// its own slot; whichever thread finishes a cell's last trial folds that
/// cell's slots in trial order, so every fold sees the sequence a serial
/// loop would — bit-identical for any thread count, with no merge step.
template <typename Acc, typename Trial, typename Fold>
void execute_shard_into(const SweepSpec& spec, const shard::ShardSpec& sh,
                        std::vector<Acc>& cells, Trial& trial, Fold& fold,
                        const PoolRef& pool_ref) {
  const auto trials = static_cast<std::size_t>(sh.trial_end - sh.trial_begin);
  std::vector<std::optional<TrialResult<Trial>>> slots(sh.cells() * trials);
  std::vector<std::atomic<std::size_t>> finished(sh.cells());
  pool_ref->parallel_for(slots.size(), [&](std::size_t u) {
    const std::size_t i = u / trials;
    const std::size_t cell = sh.cell_begin + i;
    const std::vector<std::size_t> idx = decode_cell(spec, cell);
    const int t = sh.trial_begin + static_cast<int>(u % trials);
    slots[u].emplace(run_trial(spec, Scenario(spec, cell, idx, t), trial));
    // The last finisher of a cell sees every other trial's slot write.
    if (finished[i].fetch_add(1) + 1 < trials) return;
    for (std::size_t k = 0; k < trials; ++k) {
      std::optional<TrialResult<Trial>>& slot = slots[i * trials + k];
      const Scenario scenario(spec, cell, idx,
                              sh.trial_begin + static_cast<int>(k));
      fold_trial(cells[cell], std::move(*slot), scenario, fold);
      slot.reset();
    }
    note_cell_folded();
  });
}

/// Execute one shard durably: resume completed cells from the newest valid
/// checkpoint generation, run the rest on the pool, persist a checkpoint
/// every checkpoint_every() completions, and return the complete encoded
/// ShardPayload. Completed cells are held serialized (codec bytes), so a
/// checkpoint is a pure concatenation and resume needs no re-execution.
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
            if (e.cell >= sh.cell_begin && e.cell < sh.cell_end &&
                e.trial_begin == sh.trial_begin &&
                e.trial_end == sh.trial_end) {
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
    if (!done[i].has_value()) pending.push_back(i);
  }

  auto build_payload = [&](bool with_metrics) {
    shard::ShardPayload payload;
    payload.plan_hash = plan.plan_hash;
    payload.shard_id = sh.id;
    payload.shard_index = sh.index;
    for (std::size_t i = 0; i < done.size(); ++i) {
      if (!done[i].has_value()) continue;
      shard::ShardPayloadEntry e;
      e.cell = sh.cell_begin + i;
      e.trial_begin = sh.trial_begin;
      e.trial_end = sh.trial_end;
      e.acc_bytes = *done[i];
      payload.entries.push_back(std::move(e));
    }
    if (with_metrics && obs::enabled()) {
      serde::Writer mw;
      obs::snapshot().save(mw);
      payload.metrics = mw.take();
    }
    return shard::encode_shard_payload(payload);
  };

  std::mutex mu;
  std::size_t since_checkpoint = 0;
  const std::size_t every = std::max<std::size_t>(1, ctx.checkpoint_every());
  pool_ref->parallel_for(pending.size(), [&](std::size_t k) {
    const std::size_t i = pending[k];
    const std::size_t cell = sh.cell_begin + i;
    Acc acc = init;
    run_cell_into(spec, cell, sh.trial_begin, sh.trial_end, acc, trial, fold);
    serde::Writer w;
    codec.save(w, acc);
    std::lock_guard<std::mutex> lock(mu);
    done[i] = w.take();
    ctx.note_progress(sh.index);
    if (!ckpt_path.empty() && ++since_checkpoint >= every) {
      since_checkpoint = 0;
      checkpoint::write(ckpt_path, build_payload(/*with_metrics=*/true));
    }
  });

  return build_payload(/*with_metrics=*/true);
}

/// The reduce stage: validate and fold shard payloads (in plan order) back
/// into the result grid. Whole-cell entries are placed directly — a
/// deserialize of exactly the bytes the executor serialized, hence
/// bit-identical to local execution. When a plan split one cell's trials,
/// the partial accumulators are combined with an order-respecting tree
/// merge (adjacent pairs, trial order preserved at every level).
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
  std::vector<int> next_trial(cells.size(), 0);
  std::vector<std::vector<Acc>> parts(cells.size());
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    const shard::ShardSpec& sh = plan.shards[i];
    shard::ShardPayload payload = shard::decode_shard_payload(payloads[i]);
    if (payload.plan_hash != plan.plan_hash || payload.shard_id != sh.id ||
        payload.shard_index != sh.index) {
      throw ConfigError("sweep reduce: shard result " + std::to_string(i) +
                        " does not match the plan");
    }
    if (payload.entries.size() != sh.cells()) {
      throw ConfigError("sweep reduce: shard " + std::to_string(i) +
                        " result is incomplete");
    }
    for (shard::ShardPayloadEntry& e : payload.entries) {
      if (e.cell < sh.cell_begin || e.cell >= sh.cell_end ||
          e.trial_begin != sh.trial_begin || e.trial_end != sh.trial_end) {
        throw ConfigError("sweep reduce: shard " + std::to_string(i) +
                          " entry outside its shard range");
      }
      if (e.trial_begin != next_trial[e.cell]) {
        throw ConfigError("sweep reduce: non-contiguous trial coverage for "
                          "cell " + std::to_string(e.cell));
      }
      next_trial[e.cell] = e.trial_end;
      serde::Reader r(e.acc_bytes);
      parts[e.cell].push_back(codec.load(r));
      r.expect_done("shard accumulator");
    }
  }
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    if (next_trial[cell] != plan.trials) {
      throw ConfigError("sweep reduce: cell " + std::to_string(cell) +
                        " not fully covered by shard results");
    }
    std::vector<Acc>& v = parts[cell];
    if (v.size() > 1 && !codec.merge) {
      throw ConfigError("sweep reduce: trial-split plan needs a codec with "
                        "merge()");
    }
    while (v.size() > 1) {
      std::vector<Acc> merged;
      merged.reserve((v.size() + 1) / 2);
      for (std::size_t i = 0; i < v.size(); i += 2) {
        if (i + 1 < v.size()) codec.merge(v[i], std::move(v[i + 1]));
        merged.push_back(std::move(v[i]));
      }
      v = std::move(merged);
    }
    cells[cell] = std::move(v.front());
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
/// as fold(acc, result) or, if it accepts a third parameter,
/// fold(acc, result, scenario). (cell, trial) pairs are distributed
/// dynamically — trials of one cell may run concurrently, so `trial` must
/// only write state owned by its (cell, trial) — and because every trial
/// draws from its own substream and folds in trial order, results are
/// bit-identical for any thread count.
///
/// Execution substrate: an explicit `pool` wins (pass the SAME pool into
/// any nested fan-out inside the trial — e.g. TraceReplayOptions::pool — so
/// the work-stealing scheduler lets a cell's inner parallelism recruit idle
/// sweep workers). With pool == nullptr, threads == 0 fans out on the
/// process-wide ThreadPool::shared(); threads > 0 uses a dedicated
/// transient pool of that width.
///
/// Distribution: when an ambient shard::ShardContext is installed
/// (bench_util --shard-dir) AND `codec` is non-null, the sweep runs as
/// plan -> claim/execute -> reduce across every participating process,
/// returning the identical result grid in each. Without a codec (or
/// without a context) the sweep runs locally as the degenerate one-shard
/// plan — byte-identical to the distributed result.
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
  result.cells.assign(spec.cell_count(), std::move(init));
  const shard::ShardPlan plan =
      shard::plan_shards(spec, shard::PlanPolicy{.max_shards = 1});
  const PoolRef pool_ref(threads, pool);
  detail::execute_shard_into(spec, plan.shards.front(), result.cells, trial,
                             fold, pool_ref);
  return result;
}

/// Scalar sweep: a thin adapter over run_sweep_reduce with an Accumulator
/// per cell (NaN results leave the cell untouched). Bit-identical to the
/// pre-generic engine for any thread count; same pool/threads resolution as
/// run_sweep_reduce. Shardable out of the box (shard::accumulator_codec).
SweepResult run_sweep(const SweepSpec& spec, const TrialFn& fn,
                      int threads = 0, ThreadPool* pool = nullptr);

}  // namespace ihbd::runtime
