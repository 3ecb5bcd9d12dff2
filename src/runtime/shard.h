// The plan stage of the plan -> execute -> reduce sweep pipeline, plus the
// serializable boundary types the three stages exchange.
//
//   plan    — plan_shards() deterministically partitions a SweepSpec's
//             cells into ShardSpecs with stable ids derived from the spec
//             fingerprint. Any process holding an equal spec and policy
//             computes the identical plan: shards need no distribution
//             channel, only the spec itself.
//   execute — the engine (sweep.h) runs one shard on the thread pool
//             and serializes each completed cell's accumulator
//             through a ShardCodec into an opaque ShardPayload (also the
//             checkpoint payload — see src/runtime/checkpoint.h).
//   reduce  — reduce_shard_payloads (sweep.h) places each payload's cells
//             back into the result grid, bit-identical to the
//             single-process engine.
//
// Granularity: a shard is a contiguous range of whole cells and always
// covers every trial [0, spec.trials) of each. Trials within a cell fold in
// trial order, and Accumulator's Chan moment merge is not bit-identical to
// that sequential fold, so a cell is never split across shards: the reduce
// is pure placement, with no merge step. Within a shard the trials of one
// cell still run on several pool workers at once (sweep.h).
//
// ShardContext is the transport seam: the engine asks an installed context
// which shards to execute, where to checkpoint and how to publish/collect
// results, but never how bytes move. src/sweepd implements the context
// over a shared run directory (claim/lease/heartbeat/result files); tests
// implement it in-memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/serde.h"
#include "src/runtime/sweep_spec.h"

namespace ihbd::runtime {
class Accumulator;
}  // namespace ihbd::runtime

namespace ihbd::runtime::shard {

/// How a sweep is partitioned. Part of the plan identity (hashed into
/// plan_hash): every participant must run the same policy.
struct PlanPolicy {
  /// Upper bound on shard count; the planner never splits finer than one
  /// cell, so the actual count is min(max_shards, cells).
  std::size_t max_shards = 16;
};

/// One unit of distributable work: a contiguous range of whole cells, each
/// with all of its trials.
struct ShardSpec {
  std::size_t index = 0;       ///< position in the plan (reduce order)
  std::size_t cell_begin = 0;  ///< first cell, inclusive
  std::size_t cell_end = 0;    ///< last cell, exclusive
  std::uint64_t id = 0;        ///< stable: hash(plan_hash, index)

  std::size_t cells() const { return cell_end - cell_begin; }
};

struct ShardPlan {
  std::uint64_t spec_hash = 0;  ///< spec_fingerprint(spec)
  std::uint64_t plan_hash = 0;  ///< spec_hash folded with the policy
  std::size_t cell_count = 0;
  int trials = 0;
  std::vector<ShardSpec> shards;
};

/// Order-independent digest of everything that defines a sweep's identity:
/// seed, trials, keep_samples, fingerprint_salt, and each axis's name,
/// labels and value bits (FNV-1a 64). Two processes agree on this iff they
/// would compute the same sweep.
std::uint64_t spec_fingerprint(const SweepSpec& spec);

/// Deterministically partition the spec: contiguous cell ranges balanced to
/// within one cell, in cell order (shard 0 owns the lowest cells), so the
/// reduce is a simple in-order walk. Shard ids are content-derived and
/// stable.
ShardPlan plan_shards(const SweepSpec& spec, const PlanPolicy& policy = {});

/// 16-hex-digit rendering used in file names and logs.
std::string shard_id_hex(std::uint64_t id);

/// How the engine serializes one cell's accumulator across the shard
/// boundary: load(save(acc)) must restore `acc` bit-exactly.
template <typename Acc>
struct ShardCodec {
  std::function<void(serde::Writer&, const Acc&)> save;
  std::function<Acc(serde::Reader&)> load;
};

/// Codec for the scalar engine's moments Accumulator.
const ShardCodec<Accumulator>& accumulator_codec();

// --- shard payload ----------------------------------------------------------
// The one wire format for both checkpoints (partial: the entries completed
// so far) and results (complete): plan/shard identity, the per-cell
// serialized accumulators, and an optional obs::MetricsSnapshot so a
// killed worker's counters survive into the fleet merge.

struct ShardPayloadEntry {
  std::size_t cell = 0;
  std::string acc_bytes;  ///< ShardCodec-serialized accumulator
};

struct ShardPayload {
  std::uint64_t plan_hash = 0;
  std::uint64_t shard_id = 0;
  std::size_t shard_index = 0;
  std::vector<ShardPayloadEntry> entries;  ///< completed cells, ascending
  std::string metrics;  ///< serialized obs::MetricsSnapshot; "" = none
};

std::string encode_shard_payload(const ShardPayload& payload);
/// Throws ConfigError on malformed bytes (callers pass only payloads that
/// already passed frame validation, so malformed here means version skew
/// or a logic bug, not disk corruption).
ShardPayload decode_shard_payload(std::string_view bytes);

// --- transport seam ---------------------------------------------------------

/// One sweep's view of a shard transport. The engine drives it:
///
///   begin_sweep(plan)
///   while executes():
///     claim() -> shard index (nullopt: nothing claimable right now)
///     ... execute, checkpointing to checkpoint_path(shard) ...
///     publish_result(shard, payload)   |  release(shard) on failure
///   until try_collect() -> all payloads:  poll_wait()
///   end_sweep()
///
/// Implementations must tolerate duplicate execution of a shard (two
/// workers racing a reclaimed lease): execution is deterministic, so any
/// published result for a shard id is byte-interchangeable.
class ShardContext {
 public:
  virtual ~ShardContext() = default;

  /// Must agree across every participant of a run (hashed into the plan).
  virtual PlanPolicy policy() const = 0;

  /// A new sweep over `plan` starts. Called by every participant, in the
  /// same sweep order — transports key per-sweep state off plan.plan_hash
  /// plus an ordinal so one process can run many sweeps in sequence.
  virtual void begin_sweep(const ShardPlan& plan) = 0;

  /// Whether this participant executes shards (worker) or only reduces
  /// (coordinator).
  virtual bool executes() const = 0;

  /// Try to acquire one unexecuted shard (by plan index). nullopt when
  /// nothing is claimable *right now*; the engine then moves to collection
  /// and keeps alternating claim/poll until results are complete, so a
  /// shard reclaimed from a dead owner later is still picked up.
  virtual std::optional<std::size_t> claim() = 0;

  /// Where the executor persists mid-shard checkpoints; "" disables
  /// checkpointing for this transport.
  virtual std::string checkpoint_path(std::size_t shard) const = 0;

  /// Checkpoint cadence: persist after every N completed cells.
  virtual std::size_t checkpoint_every() const { return 1; }

  /// A heartbeat opportunity after each completed cell (lease renewal).
  virtual void note_progress(std::size_t shard) { (void)shard; }

  /// Publish the complete result payload for a claimed shard.
  virtual void publish_result(std::size_t shard, std::string payload) = 0;

  /// Give up a claimed shard without a result (executor failed); the shard
  /// becomes claimable again.
  virtual void release(std::size_t shard) { (void)shard; }

  /// All shard payloads in plan order if every result is available.
  virtual std::optional<std::vector<std::string>> try_collect() = 0;

  /// Block briefly before the next claim/collect attempt. May throw to
  /// abort a sweep that cannot complete (transport-defined timeout).
  virtual void poll_wait() = 0;

  /// Serialized obs::MetricsSnapshot recovered from a checkpoint written
  /// by a previous (killed) incarnation; the transport folds it into this
  /// process's published metrics so no recorded work is double-lost.
  virtual void note_resumed_metrics(std::string_view metrics_bytes) {
    (void)metrics_bytes;
  }

  /// The sweep's result grid is complete in this process.
  virtual void end_sweep() = 0;
};

/// Process-global ambient context (not owned). bench_util installs one when
/// --shard-dir is passed; run_sweep_reduce routes through it only when the
/// caller also supplies a ShardCodec, so codec-less sweeps keep running
/// locally in every process (deterministically identical everywhere).
ShardContext* context();
void set_context(ShardContext* ctx);

}  // namespace ihbd::runtime::shard
