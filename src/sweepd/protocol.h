// File-based shard transport for distributed sweeps: the concrete
// runtime::shard::ShardContext that ihbd-sweepd and bench_util --shard-dir
// install. Any shared filesystem (local disk, NFS) is the only
// coordination channel — there is no server.
//
// Run-directory layout (one run dir serves a whole fleet):
//
//   <dir>/MANIFEST                      first-creator-wins run config
//                                       (max_shards); later joiners adopt
//   <dir>/metrics/<owner>.bin           per-owner obs::MetricsSnapshot
//                                       (serde frame), merged into one
//                                       fleet metrics.json by bench_util
//                                       --metrics or `ihbd-sweepd
//                                       merge-metrics`
//   <dir>/sweep-NNN-<plan_hash16>/      one dir per sweep a binary runs
//                                       (NNN = sweep ordinal in process
//                                       order, so repeated sweeps over an
//                                       identical spec stay distinct)
//     PLAN                              text summary; joiners verify the
//                                       plan hash matches their own
//     sNNNN-<shard_id16>.lease          exclusive claim (O_EXCL create);
//                                       content = owner, mtime = heartbeat
//     sNNNN-<shard_id16>.ckpt{,.1}      checkpoint generations
//                                       (src/runtime/checkpoint.h)
//     sNNNN-<shard_id16>.result         published ShardPayload
//                                       (serde frame "IHRS")
//
// Protocol invariants:
//   * Claim is an atomic exclusive create of the lease file. A lease whose
//     mtime is older than lease_timeout_s is stale: any worker may unlink
//     it and re-claim (the reclaim is logged and counted). A heartbeat
//     thread re-writes the lease every heartbeat_interval_s while the
//     shard executes.
//   * Publishing a result is atomic (temp + rename), after which the lease
//     is released. A result file is authoritative and immutable; claim()
//     never touches a shard whose result validates. Duplicate execution
//     after a reclaim race is benign: execution is deterministic, so both
//     workers publish byte-identical payloads.
//   * try_collect() validates every result frame; an invalid (torn,
//     corrupt) result file is deleted so the shard becomes claimable
//     again.
//   * Kill-resume: a worker that dies mid-shard leaves its checkpoint
//     generations behind; whoever re-claims the shard resumes from the
//     newest valid generation and carries the dead worker's checkpointed
//     metrics snapshot forward (note_resumed_metrics), so fleet metrics
//     lose nothing that was checkpointed.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <condition_variable>
#include <vector>

#include "src/obs/metrics.h"
#include "src/runtime/shard.h"

namespace ihbd::sweepd {

inline constexpr std::uint32_t kResultMagic = 0x53524849;   // "IHRS" LE
inline constexpr std::uint32_t kMetricsMagic = 0x534D4849;  // "IHMS" LE
inline constexpr std::uint32_t kResultVersion = 2;
inline constexpr std::uint32_t kMetricsVersion = 1;

struct FileShardOptions {
  std::string dir;    ///< shared run directory (created if absent)
  std::string owner;  ///< unique per participant; "" = "<host>-<pid>"
  bool execute = true;  ///< worker claims+executes; coordinator only reduces
  /// A lease older than this is stale and may be reclaimed.
  double lease_timeout_s = 15.0;
  /// Sleep between claim/collect attempts while waiting on other workers.
  double poll_interval_s = 0.2;
  /// Lease refresh cadence while executing; 0 = lease_timeout_s / 4.
  double heartbeat_interval_s = 0.0;
  /// Give up waiting for missing results after this long; 0 = wait forever.
  double wait_timeout_s = 0.0;
  /// Plan granularity (PlanPolicy::max_shards). First creator of the run
  /// dir writes it to MANIFEST; later joiners adopt the manifest value, so
  /// mismatched CLI flags cannot fork the plan.
  std::size_t max_shards = 16;
  /// Checkpoint after every N completed cells.
  std::size_t checkpoint_every = 1;
};

class FileShardContext final : public runtime::shard::ShardContext {
 public:
  /// Creates the run directory and MANIFEST (or adopts an existing one,
  /// overriding max_shards from it). Throws ConfigError on an unusable dir
  /// or a malformed manifest.
  explicit FileShardContext(FileShardOptions options);
  ~FileShardContext() override;

  FileShardContext(const FileShardContext&) = delete;
  FileShardContext& operator=(const FileShardContext&) = delete;

  // ShardContext transport interface (see src/runtime/shard.h).
  runtime::shard::PlanPolicy policy() const override;
  void begin_sweep(const runtime::shard::ShardPlan& plan) override;
  bool executes() const override { return options_.execute; }
  std::optional<std::size_t> claim() override;
  std::string checkpoint_path(std::size_t shard) const override;
  std::size_t checkpoint_every() const override {
    return options_.checkpoint_every;
  }
  void note_progress(std::size_t shard) override;
  void publish_result(std::size_t shard, std::string payload) override;
  void release(std::size_t shard) override;
  std::optional<std::vector<std::string>> try_collect() override;
  void poll_wait() override;
  void note_resumed_metrics(std::string_view metrics_bytes) override;
  void end_sweep() override;

  const FileShardOptions& options() const { return options_; }

  /// Publish this process's metrics under metrics/<owner>.bin — the given
  /// snapshot merged with every snapshot carried from resumed checkpoints.
  /// bench_util::finish calls this before merging the fleet.
  bool write_own_metrics(const obs::MetricsSnapshot& own);

 private:
  std::filesystem::path shard_stem(std::size_t shard) const;
  std::filesystem::path lease_path(std::size_t shard) const;
  std::filesystem::path result_path(std::size_t shard) const;
  bool try_create_lease(std::size_t shard);
  void start_heartbeat(std::size_t shard);
  void stop_heartbeat();

  FileShardOptions options_;
  std::filesystem::path dir_;

  // Per-sweep state (between begin_sweep and end_sweep).
  std::filesystem::path sweep_dir_;
  runtime::shard::ShardPlan plan_;
  std::size_t sweep_ordinal_ = 0;
  std::chrono::steady_clock::time_point wait_deadline_{};
  bool has_deadline_ = false;
  /// Validated result payloads already read this sweep (results are
  /// immutable once valid, so each is read at most once).
  std::map<std::size_t, std::string> collected_;

  // Heartbeat thread for the currently executing shard.
  std::thread heartbeat_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;

  // Metrics snapshots recovered from checkpoints of dead incarnations.
  std::mutex carried_mu_;
  obs::MetricsSnapshot carried_;
  bool has_carried_ = false;
};

/// Merge every valid metrics/<owner>.bin under `run_dir` (ascending owner
/// name, so gauge right-wins deterministically). Invalid frames are
/// skipped with a note on stderr. Used by bench_util --metrics and
/// `ihbd-sweepd merge-metrics`.
obs::MetricsSnapshot merge_metrics_dir(const std::string& run_dir);

}  // namespace ihbd::sweepd
