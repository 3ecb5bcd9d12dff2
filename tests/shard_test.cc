// The plan -> execute -> reduce pipeline and its durability story:
// deterministic planning, in-memory and file-based transports, checkpoint
// rotation/corruption fallback, stale-lease reclaim — and, throughout,
// bit-identity of the sharded result with the plain local engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/common/serde.h"
#include "src/obs/metrics.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/shard.h"
#include "src/runtime/sweep.h"
#include "src/sweepd/protocol.h"

namespace ihbd::runtime {
namespace {

namespace fs = std::filesystem;

SweepSpec make_spec(int trials = 3, std::uint64_t salt = 0) {
  SweepSpec spec;
  spec.seed = 99;
  spec.trials = trials;
  spec.fingerprint_salt = salt;
  spec.axes = {Axis::of_values("x", {0.5, 1.5, 2.5}),
               Axis::of_labels("mode", {"a", "b"})};
  return spec;
}

double trial_value(const Scenario& s, Rng& rng) {
  return rng.uniform() + s.value(0);
}

/// Reference: the plain local engine (no ambient context).
SweepResult local_reference(const SweepSpec& spec) {
  return run_sweep(spec, trial_value, /*threads=*/2);
}

void expect_bit_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].count(), b.cells[i].count()) << "cell " << i;
    EXPECT_EQ(a.cells[i].mean(), b.cells[i].mean()) << "cell " << i;
    EXPECT_EQ(a.cells[i].variance(), b.cells[i].variance()) << "cell " << i;
    EXPECT_EQ(a.cells[i].min(), b.cells[i].min()) << "cell " << i;
    EXPECT_EQ(a.cells[i].max(), b.cells[i].max()) << "cell " << i;
    EXPECT_EQ(a.cells[i].samples(), b.cells[i].samples()) << "cell " << i;
  }
}

/// Installs an ambient context for one scope, always restoring on exit so a
/// failing test cannot leak sharding into later tests.
struct AmbientContext {
  explicit AmbientContext(shard::ShardContext* ctx) { shard::set_context(ctx); }
  ~AmbientContext() { shard::set_context(nullptr); }
};

/// Minimal single-process transport: claims every shard itself, keeps
/// results in memory, optionally checkpoints under a directory.
class MemoryShardContext final : public shard::ShardContext {
 public:
  explicit MemoryShardContext(shard::PlanPolicy policy,
                              std::string ckpt_dir = "")
      : policy_(policy), ckpt_dir_(std::move(ckpt_dir)) {}

  shard::PlanPolicy policy() const override { return policy_; }
  void begin_sweep(const shard::ShardPlan& plan) override {
    claimed_.assign(plan.shards.size(), false);
    results_.assign(plan.shards.size(), std::nullopt);
  }
  bool executes() const override { return true; }
  std::optional<std::size_t> claim() override {
    for (std::size_t i = 0; i < claimed_.size(); ++i) {
      if (!claimed_[i]) {
        claimed_[i] = true;
        return i;
      }
    }
    return std::nullopt;
  }
  std::string checkpoint_path(std::size_t shard) const override {
    if (ckpt_dir_.empty()) return "";
    return ckpt_dir_ + "/s" + std::to_string(shard) + ".ckpt";
  }
  void publish_result(std::size_t shard, std::string payload) override {
    results_[shard] = std::move(payload);
  }
  std::optional<std::vector<std::string>> try_collect() override {
    std::vector<std::string> all;
    for (const auto& r : results_) {
      if (!r.has_value()) return std::nullopt;
      all.push_back(*r);
    }
    return all;
  }
  void poll_wait() override {
    // Single participant: if execution didn't fill every result, waiting
    // can never help.
    throw ConfigError("MemoryShardContext: wait would deadlock");
  }
  void end_sweep() override {}

 private:
  shard::PlanPolicy policy_;
  std::string ckpt_dir_;
  std::vector<bool> claimed_;
  std::vector<std::optional<std::string>> results_;
};

// --- planner ----------------------------------------------------------------

TEST(ShardPlan, DeterministicBalancedTiling) {
  const SweepSpec spec = make_spec();  // 6 cells
  const shard::ShardPlan plan =
      shard::plan_shards(spec, {.max_shards = 4});
  ASSERT_EQ(plan.shards.size(), 4u);
  EXPECT_EQ(plan.cell_count, 6u);
  EXPECT_EQ(plan.trials, 3);

  // Contiguous, in order, balanced to within one cell, covering everything.
  std::size_t next_cell = 0;
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    const shard::ShardSpec& sh = plan.shards[i];
    EXPECT_EQ(sh.index, i);
    EXPECT_EQ(sh.cell_begin, next_cell);
    next_cell = sh.cell_end;
    EXPECT_GE(sh.cells(), 1u);
    EXPECT_LE(sh.cells(), 2u);
  }
  EXPECT_EQ(next_cell, plan.cell_count);

  // Same spec + policy -> the identical plan, including ids, in any process.
  const shard::ShardPlan again = shard::plan_shards(spec, {.max_shards = 4});
  EXPECT_EQ(again.plan_hash, plan.plan_hash);
  for (std::size_t i = 0; i < plan.shards.size(); ++i)
    EXPECT_EQ(again.shards[i].id, plan.shards[i].id);
}

TEST(ShardPlan, NeverSplitsFinerThanOneCell) {
  const shard::ShardPlan plan = shard::plan_shards(make_spec(),
                                                   {.max_shards = 100});
  EXPECT_EQ(plan.shards.size(), 6u);  // 6 cells, whole-cell granularity
}

TEST(ShardPlan, IdentityRespondsToSpecAndPolicy) {
  const std::uint64_t base = shard::spec_fingerprint(make_spec());
  EXPECT_EQ(shard::spec_fingerprint(make_spec()), base);
  EXPECT_NE(shard::spec_fingerprint(make_spec(4)), base);  // trials differ
  EXPECT_NE(shard::spec_fingerprint(make_spec(3, 7)), base);  // salt differs
  SweepSpec other_seed = make_spec();
  other_seed.seed = 100;
  EXPECT_NE(shard::spec_fingerprint(other_seed), base);
  SweepSpec other_values = make_spec();
  other_values.axes[0] = Axis::of_values("x", {0.5, 1.5, 2.6});
  EXPECT_NE(shard::spec_fingerprint(other_values), base);

  // The policy folds into the plan hash but not the spec hash.
  const auto p4 = shard::plan_shards(make_spec(), {.max_shards = 4});
  const auto p2 = shard::plan_shards(make_spec(), {.max_shards = 2});
  EXPECT_EQ(p4.spec_hash, p2.spec_hash);
  EXPECT_NE(p4.plan_hash, p2.plan_hash);

  EXPECT_THROW(shard::plan_shards(make_spec(), {.max_shards = 0}),
               ConfigError);
  EXPECT_EQ(shard::shard_id_hex(0xABCDull).size(), 16u);
}

// --- pipeline vs local engine ----------------------------------------------

TEST(ShardPipeline, ShardedScalarSweepIsBitIdenticalToLocal) {
  const SweepSpec spec = make_spec(/*trials=*/5);
  const SweepResult ref = local_reference(spec);

  for (const std::size_t max_shards : {1u, 2u, 5u, 16u}) {
    MemoryShardContext ctx({.max_shards = max_shards});
    AmbientContext ambient(&ctx);
    const SweepResult sharded = run_sweep(spec, trial_value, /*threads=*/2);
    expect_bit_identical(ref, sharded);
  }
}

TEST(ShardPipeline, DurableTrialsOfOneCellRunConcurrently) {
  // The durable path shares the local slot scheduler: a two-trial
  // rendezvous in which each trial waits (bounded) for the other to start.
  // Serialized trials time out instead of hanging, and fail.
  SweepSpec spec;
  spec.seed = 3;
  spec.trials = 2;
  spec.axes = {Axis::of_labels("cell", {"only"})};
  const shard::ShardCodec<int> codec{
      [](serde::Writer& w, const int& met) {
        w.u64(static_cast<std::uint64_t>(met));
      },
      [](serde::Reader& r) { return static_cast<int>(r.u64()); }};
  for (const int threads : {2, 4}) {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    MemoryShardContext ctx({.max_shards = 1});
    AmbientContext ambient(&ctx);
    const auto result = run_sweep_reduce(
        spec, 0,
        [&](const Scenario&, Rng&) {
          std::unique_lock<std::mutex> lock(mu);
          ++arrived;
          cv.notify_all();
          return cv.wait_for(lock, std::chrono::seconds(5),
                             [&] { return arrived == 2; })
                     ? 1
                     : 0;
        },
        [](int& met, int saw) { met += saw; }, threads, nullptr, &codec);
    EXPECT_EQ(result.cells.front(), 2) << threads << " threads";
  }
}

/// Encode one shard's payload from explicit (cell, accumulator) entries.
std::string encode_entries(const shard::ShardPlan& plan, std::size_t shard,
                           const std::vector<std::size_t>& entry_cells,
                           const SweepResult& source) {
  shard::ShardPayload payload;
  payload.plan_hash = plan.plan_hash;
  payload.shard_id = plan.shards[shard].id;
  payload.shard_index = shard;
  for (const std::size_t cell : entry_cells) {
    serde::Writer w;
    shard::accumulator_codec().save(w, source.cells[cell]);
    payload.entries.push_back({cell, w.take()});
  }
  return shard::encode_shard_payload(payload);
}

void expect_reduce_rejects(const shard::ShardPlan& plan,
                           const std::vector<std::string>& payloads,
                           const char* what) {
  std::vector<Accumulator> cells(plan.cell_count);
  EXPECT_THROW(detail::reduce_shard_payloads(plan, payloads,
                                             shard::accumulator_codec(),
                                             cells),
               ConfigError)
      << what;
}

TEST(ShardPipeline, ReduceRejectsIncompleteCoverage) {
  const SweepSpec spec = make_spec();  // 6 cells -> shards {0,1,2}, {3,4,5}
  const SweepResult ref = local_reference(spec);
  const shard::ShardPlan plan = shard::plan_shards(spec, {.max_shards = 2});
  const std::string good0 = encode_entries(plan, 0, {0, 1, 2}, ref);
  const std::string good1 = encode_entries(plan, 1, {3, 4, 5}, ref);

  // The well-formed set reduces to the local grid.
  std::vector<Accumulator> cells(spec.cell_count());
  detail::reduce_shard_payloads(plan, {good0, good1},
                                shard::accumulator_codec(), cells);
  SweepResult reduced;
  reduced.cells = cells;
  expect_bit_identical(ref, reduced);

  expect_reduce_rejects(plan, {good0}, "too few payloads");

  // A payload claiming the wrong shard id must be rejected.
  shard::ShardPayload bogus;
  bogus.plan_hash = plan.plan_hash;
  bogus.shard_id = plan.shards[0].id + 1;
  bogus.shard_index = 0;
  expect_reduce_rejects(plan, {shard::encode_shard_payload(bogus), good1},
                        "wrong shard id");

  // Both shards' payloads, but from another plan of the same spec.
  const shard::ShardPlan other = shard::plan_shards(spec, {.max_shards = 3});
  expect_reduce_rejects(plan, {encode_entries(other, 0, {0, 1, 2}, ref), good1},
                        "payload from another plan");

  expect_reduce_rejects(plan, {encode_entries(plan, 0, {0, 1, 3}, ref), good1},
                        "entry outside its shard");
}

TEST(ShardPipeline, ReduceRejectsDuplicateOrMissingCells) {
  const SweepSpec spec = make_spec();
  const SweepResult ref = local_reference(spec);
  const shard::ShardPlan plan = shard::plan_shards(spec, {.max_shards = 2});
  const std::string good1 = encode_entries(plan, 1, {3, 4, 5}, ref);

  expect_reduce_rejects(plan, {encode_entries(plan, 0, {0, 1, 1}, ref), good1},
                        "cell listed twice");
  expect_reduce_rejects(plan, {encode_entries(plan, 0, {0, 2}, ref), good1},
                        "cell left out");
}

// --- checkpoint durability --------------------------------------------------

TEST(Checkpoint, WriteRotatesGenerationsAndLoadsFallBack) {
  const std::string dir = ::testing::TempDir() + "/ckpt_rotate";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/s.ckpt";

  ASSERT_TRUE(checkpoint::write(path, "gen-one"));
  ASSERT_TRUE(checkpoint::write(path, "gen-two"));

  EXPECT_EQ(checkpoint::load_file(path).payload, "gen-two");
  EXPECT_EQ(checkpoint::load_file(path + ".1").payload, "gen-one");

  // Corrupt the newest generation: fallback recovers the previous one and
  // reports what it saw.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  EXPECT_EQ(checkpoint::load_file(path).status,
            checkpoint::LoadStatus::bad_checksum);
  const checkpoint::Recovered rec = checkpoint::load_with_fallback(path);
  EXPECT_TRUE(rec.valid);
  EXPECT_EQ(rec.generation, 1);
  EXPECT_EQ(rec.payload, "gen-one");
  EXPECT_EQ(rec.primary, checkpoint::LoadStatus::bad_checksum);

  // Truncation and wrong file kind are typed distinctly.
  fs::resize_file(path, 5);
  EXPECT_EQ(checkpoint::load_file(path).status,
            checkpoint::LoadStatus::truncated);
  ASSERT_TRUE(serde::write_file_atomic(path, std::string(64, 'x')));
  EXPECT_EQ(checkpoint::load_file(path).status,
            checkpoint::LoadStatus::bad_magic);
  fs::remove(path);
  fs::remove(path + ".1");
  EXPECT_EQ(checkpoint::load_file(path).status, checkpoint::LoadStatus::missing);
  EXPECT_FALSE(checkpoint::load_with_fallback(path).valid);
}

/// Counts fresh trial executions: resumed cells must not re-run trials.
struct CountingTrial {
  std::atomic<int>* calls;
  double operator()(const Scenario& s, Rng& rng) const {
    calls->fetch_add(1);
    return trial_value(s, rng);
  }
};

TEST(Checkpoint, ResumeSkipsCheckpointedCellsAndStaysBitIdentical) {
  const SweepSpec spec = make_spec(/*trials=*/4);  // 6 cells, 1 shard below
  const SweepResult ref = local_reference(spec);

  const std::string dir = ::testing::TempDir() + "/ckpt_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const shard::ShardPlan plan = shard::plan_shards(spec, {.max_shards = 1});
  MemoryShardContext ctx({.max_shards = 1}, dir);
  for (const int threads : {1, 3}) {
    // Craft a mid-shard checkpoint holding the first 2 cells, exactly as a
    // killed worker would have left it.
    ASSERT_TRUE(checkpoint::write(ctx.checkpoint_path(0),
                                  encode_entries(plan, 0, {0, 1}, ref)));
    std::atomic<int> trial_calls{0};
    AmbientContext ambient(&ctx);
    const SweepResult resumed =
        run_sweep(spec, CountingTrial{&trial_calls}, threads);
    expect_bit_identical(ref, resumed);
    // Only the 4 pending cells ran, each with all of its trials.
    EXPECT_EQ(trial_calls.load(), 4 * (6 - 2)) << threads << " threads";
  }
}

TEST(Checkpoint, VersionOneFrameIsBadVersionAndTheShardReRuns) {
  const SweepSpec spec = make_spec(/*trials=*/2);
  const SweepResult ref = local_reference(spec);

  const std::string dir = ::testing::TempDir() + "/ckpt_v1";
  fs::remove_all(dir);
  fs::create_directories(dir);
  MemoryShardContext ctx({.max_shards = 1}, dir);
  const std::string path = ctx.checkpoint_path(0);

  // A version-1 payload carried a trial range with every entry; the frame
  // checksums fine but must not be decoded by this executor.
  const shard::ShardPlan plan = shard::plan_shards(spec, {.max_shards = 1});
  serde::Writer w;
  w.u64(plan.plan_hash);
  w.u64(plan.shards[0].id);
  w.u64(0);
  w.u64(1);
  w.u64(0);  // cell
  w.u64(0);  // trial_begin
  w.u64(static_cast<std::uint64_t>(spec.trials));  // trial_end
  serde::Writer acc;
  shard::accumulator_codec().save(acc, ref.cells[0]);
  w.str(acc.buffer());
  w.str("");
  ASSERT_TRUE(serde::write_file_atomic(
      path, serde::frame_record(checkpoint::kMagic, 1, w.buffer())));
  EXPECT_EQ(checkpoint::load_file(path).status,
            checkpoint::LoadStatus::bad_version);

  std::atomic<int> trial_calls{0};
  AmbientContext ambient(&ctx);
  expect_bit_identical(ref, run_sweep(spec, CountingTrial{&trial_calls}, 2));
  EXPECT_EQ(trial_calls.load(), 2 * 6);  // the whole shard re-ran
}

TEST(Checkpoint, CheckpointFromAnotherPlanIsIgnored) {
  const SweepSpec spec = make_spec(/*trials=*/2);
  const SweepResult ref = local_reference(spec);

  const std::string dir = ::testing::TempDir() + "/ckpt_other_plan";
  fs::remove_all(dir);
  fs::create_directories(dir);
  MemoryShardContext ctx({.max_shards = 1}, dir);
  // Same spec, but planned with another shard count: its cells must not
  // leak into this plan's shard 0.
  const shard::ShardPlan other = shard::plan_shards(spec, {.max_shards = 2});
  ASSERT_TRUE(checkpoint::write(ctx.checkpoint_path(0),
                                encode_entries(other, 0, {0, 1, 2}, ref)));

  std::atomic<int> trial_calls{0};
  AmbientContext ambient(&ctx);
  expect_bit_identical(ref, run_sweep(spec, CountingTrial{&trial_calls}, 2));
  EXPECT_EQ(trial_calls.load(), 2 * 6);
}

TEST(Checkpoint, FailedWritesAreCountedAndTheSweepCompletes) {
  const SweepSpec spec = make_spec(/*trials=*/2);  // 6 cells
  const SweepResult ref = local_reference(spec);

  // The checkpoint directory does not exist, so every write fails.
  const std::string dir = ::testing::TempDir() + "/ckpt_missing_dir/absent";
  fs::remove_all(::testing::TempDir() + "/ckpt_missing_dir");
  const std::string counter = "sweepd.checkpoint_write_failures";
  obs::set_enabled(true);
  const std::uint64_t before = obs::snapshot().counters[counter];
  SweepResult result;
  {
    MemoryShardContext ctx({.max_shards = 1}, dir);
    AmbientContext ambient(&ctx);
    result = run_sweep(spec, trial_value, /*threads=*/2);
  }
  const std::uint64_t after = obs::snapshot().counters[counter];
  obs::set_enabled(false);
  expect_bit_identical(ref, result);
  // checkpoint_every() == 1: one attempted write per completed cell.
  EXPECT_EQ(after - before, spec.cell_count());
}

TEST(Checkpoint, CorruptPrimaryFallsBackToPreviousGenerationBitIdentical) {
  const SweepSpec spec = make_spec(/*trials=*/3);
  const SweepResult ref = local_reference(spec);

  const std::string dir = ::testing::TempDir() + "/ckpt_corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  MemoryShardContext seed_ctx({.max_shards = 1}, dir);
  {
    // A full run with checkpoint_every=1 leaves the two newest generations
    // behind (5 and 6 completed cells).
    AmbientContext ambient(&seed_ctx);
    const SweepResult first = run_sweep(spec, trial_value, /*threads=*/1);
    expect_bit_identical(ref, first);
  }
  const std::string path = seed_ctx.checkpoint_path(0);
  ASSERT_TRUE(fs::exists(path));
  ASSERT_TRUE(fs::exists(path + ".1"));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }

  std::atomic<int> trial_calls{0};
  MemoryShardContext ctx({.max_shards = 1}, dir);
  AmbientContext ambient(&ctx);
  const SweepResult resumed =
      run_sweep(spec, CountingTrial{&trial_calls}, /*threads=*/1);
  expect_bit_identical(ref, resumed);
  // The fallback generation held all but the last completed cell, so only
  // the one missing cell re-ran.
  EXPECT_EQ(trial_calls.load(), 3 * 1);
}

// --- file-based transport (src/sweepd) --------------------------------------

sweepd::FileShardOptions file_opts(const std::string& dir,
                                   const std::string& owner) {
  sweepd::FileShardOptions o;
  o.dir = dir;
  o.owner = owner;
  o.max_shards = 3;
  o.lease_timeout_s = 5.0;
  o.poll_interval_s = 0.01;
  return o;
}

TEST(FileShard, SweepThroughRunDirIsBitIdenticalAndResultsAreReused) {
  const SweepSpec spec = make_spec(/*trials=*/4);
  const SweepResult ref = local_reference(spec);
  const std::string dir = ::testing::TempDir() + "/fileshard_basic";
  fs::remove_all(dir);

  {
    sweepd::FileShardContext ctx(file_opts(dir, "w1"));
    AmbientContext ambient(&ctx);
    expect_bit_identical(ref, run_sweep(spec, trial_value, /*threads=*/2));
  }

  // A second participant joining the finished run dir must not execute
  // anything — every shard already has a published result to collect.
  std::atomic<int> trial_calls{0};
  sweepd::FileShardContext ctx2(file_opts(dir, "w2"));
  AmbientContext ambient(&ctx2);
  expect_bit_identical(ref,
                       run_sweep(spec, CountingTrial{&trial_calls}, 2));
  EXPECT_EQ(trial_calls.load(), 0);
}

TEST(FileShard, ManifestPinsShardCountForLateJoiners) {
  const std::string dir = ::testing::TempDir() + "/fileshard_manifest";
  fs::remove_all(dir);
  sweepd::FileShardContext first(file_opts(dir, "w1"));  // max_shards=3
  auto other = file_opts(dir, "w2");
  other.max_shards = 7;  // CLI mismatch: manifest must win
  sweepd::FileShardContext second(other);
  EXPECT_EQ(second.policy().max_shards, 3u);
  EXPECT_EQ(second.options().max_shards, 3u);
}

TEST(FileShard, MalformedManifestMaxShardsIsAConfigError) {
  const std::string dir = ::testing::TempDir() + "/fileshard_bad_manifest";
  for (const std::string value : {"abc", "3x", "0", "", "-1"}) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      std::ofstream out(dir + "/MANIFEST");
      out << "ihbd-sweepd v1\nmax_shards=" << value << "\n";
    }
    try {
      sweepd::FileShardContext ctx(file_opts(dir, "w1"));
      ADD_FAILURE() << "max_shards='" << value << "' was accepted";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MANIFEST"), std::string::npos) << what;
      EXPECT_NE(what.find("max_shards"), std::string::npos) << what;
    }
  }
  // A well-formed value is still adopted.
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream out(dir + "/MANIFEST");
    out << "ihbd-sweepd v1\nmax_shards=5\n";
  }
  EXPECT_EQ(sweepd::FileShardContext(file_opts(dir, "w1")).policy().max_shards,
            5u);
}

TEST(FileShard, StaleLeaseIsReclaimedFreshLeaseIsNot) {
  const SweepSpec spec = make_spec();
  const std::string dir = ::testing::TempDir() + "/fileshard_lease";
  fs::remove_all(dir);

  sweepd::FileShardContext ctx(file_opts(dir, "rescuer"));
  const shard::ShardPlan plan = shard::plan_shards(spec, ctx.policy());
  ctx.begin_sweep(plan);

  // Manufacture a dead owner's lease for shard 0: correct file name, mtime
  // far in the past.
  const fs::path sweep_dir =
      fs::path(dir) / ("sweep-000-" + shard::shard_id_hex(plan.plan_hash));
  const fs::path lease0 =
      sweep_dir /
      ("s0000-" + shard::shard_id_hex(plan.shards[0].id) + ".lease");
  {
    std::ofstream out(lease0);
    out << "deadworker\n";
  }
  fs::last_write_time(lease0,
                      fs::file_time_type::clock::now() - std::chrono::hours(1));

  // ...and a live owner's lease for shard 1 (fresh mtime): must be skipped.
  const fs::path lease1 =
      sweep_dir /
      ("s0001-" + shard::shard_id_hex(plan.shards[1].id) + ".lease");
  {
    std::ofstream out(lease1);
    out << "liveworker\n";
  }

  const auto first = ctx.claim();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 0u);  // reclaimed the stale lease
  // Without releasing shard 0 (its lease is now fresh — ours), the next
  // claim must skip both held leases and take shard 2.
  const auto second = ctx.claim();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 2u);  // shard 1's fresh lease was respected
  ctx.release(*first);
  ctx.release(*second);
  ctx.end_sweep();
}

TEST(FileShard, InvalidResultFileIsDiscardedAndBecomesClaimable) {
  const SweepSpec spec = make_spec();
  const std::string dir = ::testing::TempDir() + "/fileshard_badresult";
  fs::remove_all(dir);

  sweepd::FileShardContext ctx(file_opts(dir, "w1"));
  const shard::ShardPlan plan = shard::plan_shards(spec, ctx.policy());
  ctx.begin_sweep(plan);

  const fs::path sweep_dir =
      fs::path(dir) / ("sweep-000-" + shard::shard_id_hex(plan.plan_hash));
  const fs::path result0 =
      sweep_dir /
      ("s0000-" + shard::shard_id_hex(plan.shards[0].id) + ".result");
  {
    std::ofstream out(result0, std::ios::binary);
    out << "garbage, not a frame";
  }
  EXPECT_FALSE(ctx.try_collect().has_value());
  EXPECT_FALSE(fs::exists(result0));  // deleted -> claimable again
  const auto claimed = ctx.claim();
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(*claimed, 0u);
  ctx.release(*claimed);
  ctx.end_sweep();
}

}  // namespace
}  // namespace ihbd::runtime
