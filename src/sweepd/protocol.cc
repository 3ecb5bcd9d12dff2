#include "src/sweepd/protocol.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <system_error>

#include <unistd.h>

#include "src/common/error.h"
#include "src/common/serde.h"

namespace ihbd::sweepd {

namespace fs = std::filesystem;

namespace {

struct SweepdObs {
  obs::Counter& shards_claimed;
  obs::Counter& shards_completed;
  obs::Counter& shards_reclaimed;
  obs::Counter& lease_renewals;
  obs::Counter& result_bytes;
  obs::Counter& wait_polls;
  obs::Counter& results_invalid;
  obs::Counter& sweeps;
};

SweepdObs& sweepd_obs() {
  static SweepdObs o{obs::counter("sweepd.shards_claimed"),
                     obs::counter("sweepd.shards_completed"),
                     obs::counter("sweepd.shards_reclaimed"),
                     obs::counter("sweepd.lease_renewals"),
                     obs::counter("sweepd.result_bytes"),
                     obs::counter("sweepd.wait_polls"),
                     obs::counter("sweepd.results_invalid"),
                     obs::counter("sweepd.sweeps")};
  return o;
}

std::string default_owner() {
  char host[256] = "host";
  if (::gethostname(host, sizeof host) != 0) {
    std::snprintf(host, sizeof host, "host");
  }
  host[sizeof host - 1] = '\0';
  return std::string(host) + "-" +
         std::to_string(static_cast<long long>(::getpid()));
}

/// Atomic exclusive create: succeeds iff `path` did not exist, and whoever
/// sees `path` sees all of `content`. The content is staged in a temp file
/// unique to this call and published with link(), which fails rather than
/// replace an existing file. This is the only claim primitive the protocol
/// needs.
bool create_exclusive(const fs::path& path, std::string_view content) {
  static std::atomic<unsigned long> seq{0};
  fs::path tmp = path;
  tmp += ".tmp." + std::to_string(static_cast<long long>(::getpid())) + "." +
         std::to_string(seq.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wx");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  const bool linked =
      written && closed && ::link(tmp.c_str(), path.c_str()) == 0;
  ::unlink(tmp.c_str());
  return linked;
}

/// MANIFEST's max_shards value: digits only, at least 1.
std::size_t parse_max_shards(const std::string& value,
                             const fs::path& manifest) {
  std::size_t n = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (ec != std::errc() || ptr != end || n == 0) {
    throw ConfigError("sweepd: " + manifest.string() + ": max_shards='" +
                      value + "' is not a whole number >= 1");
  }
  return n;
}

double lease_age_seconds(const fs::path& lease) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(lease, ec);
  if (ec) return -1.0;  // vanished: not stale, just gone
  const auto age = fs::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double>(age).count();
}

}  // namespace

FileShardContext::FileShardContext(FileShardOptions options)
    : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw ConfigError("sweepd: --shard-dir must not be empty");
  }
  if (options_.owner.empty()) options_.owner = default_owner();
  if (options_.heartbeat_interval_s <= 0.0) {
    options_.heartbeat_interval_s = options_.lease_timeout_s / 4.0;
  }
  dir_ = fs::path(options_.dir);
  std::error_code ec;
  fs::create_directories(dir_ / "metrics", ec);
  if (ec) {
    throw ConfigError("sweepd: cannot create run directory '" +
                      options_.dir + "': " + ec.message());
  }
  // First creator wins the run config; later joiners adopt it so every
  // participant plans with the same granularity even if CLI flags differ.
  const fs::path manifest = dir_ / "MANIFEST";
  const std::string body = "ihbd-sweepd v1\nmax_shards=" +
                           std::to_string(options_.max_shards) + "\n";
  if (!create_exclusive(manifest, body)) {
    std::ifstream in(manifest);
    if (!in) {
      throw ConfigError("sweepd: cannot read " + manifest.string());
    }
    std::string line;
    bool found = false;
    while (std::getline(in, line)) {
      if (line.rfind("max_shards=", 0) == 0) {
        options_.max_shards = parse_max_shards(line.substr(11), manifest);
        found = true;
      }
    }
    if (!found) {
      throw ConfigError("sweepd: malformed MANIFEST in " + options_.dir);
    }
  }
}

FileShardContext::~FileShardContext() { stop_heartbeat(); }

runtime::shard::PlanPolicy FileShardContext::policy() const {
  return runtime::shard::PlanPolicy{.max_shards = options_.max_shards};
}

void FileShardContext::begin_sweep(const runtime::shard::ShardPlan& plan) {
  plan_ = plan;
  collected_.clear();
  char name[64];
  std::snprintf(name, sizeof name, "sweep-%03zu-%s", sweep_ordinal_,
                runtime::shard::shard_id_hex(plan.plan_hash).c_str());
  ++sweep_ordinal_;
  sweep_dir_ = dir_ / name;
  std::error_code ec;
  fs::create_directories(sweep_dir_, ec);
  if (ec) {
    throw ConfigError("sweepd: cannot create " + sweep_dir_.string() + ": " +
                      ec.message());
  }
  // The sweep dir name already pins ordinal + plan hash; PLAN is a
  // human-readable cross-check that fails loudly on a genuine hash
  // collision or a tampered dir.
  const std::string body =
      "plan_hash=" + runtime::shard::shard_id_hex(plan.plan_hash) +
      "\nshards=" + std::to_string(plan.shards.size()) +
      "\ncells=" + std::to_string(plan.cell_count) +
      "\ntrials=" + std::to_string(plan.trials) + "\n";
  const fs::path plan_file = sweep_dir_ / "PLAN";
  if (!create_exclusive(plan_file, body)) {
    const std::optional<std::string> existing =
        serde::read_file(plan_file.string());
    if (!existing.has_value() || *existing != body) {
      throw ConfigError("sweepd: " + plan_file.string() +
                        " does not match this process's plan — the run "
                        "directory is shared by sweeps over different specs");
    }
  }
  if (options_.wait_timeout_s > 0.0) {
    has_deadline_ = true;
    wait_deadline_ = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(
                             options_.wait_timeout_s));
  } else {
    has_deadline_ = false;
  }
  sweepd_obs().sweeps.add(1);
}

fs::path FileShardContext::shard_stem(std::size_t shard) const {
  char name[48];
  std::snprintf(name, sizeof name, "s%04zu-%s", shard,
                runtime::shard::shard_id_hex(plan_.shards[shard].id).c_str());
  return sweep_dir_ / name;
}

fs::path FileShardContext::lease_path(std::size_t shard) const {
  return shard_stem(shard) += ".lease";
}

fs::path FileShardContext::result_path(std::size_t shard) const {
  return shard_stem(shard) += ".result";
}

std::string FileShardContext::checkpoint_path(std::size_t shard) const {
  return (shard_stem(shard) += ".ckpt").string();
}

bool FileShardContext::try_create_lease(std::size_t shard) {
  return create_exclusive(lease_path(shard), options_.owner + "\n");
}

std::optional<std::size_t> FileShardContext::claim() {
  for (std::size_t shard = 0; shard < plan_.shards.size(); ++shard) {
    if (collected_.count(shard)) continue;
    std::error_code ec;
    if (fs::exists(result_path(shard), ec)) continue;
    if (try_create_lease(shard)) {
      sweepd_obs().shards_claimed.add(1);
      start_heartbeat(shard);
      return shard;
    }
    // Lease exists. Reclaim only if its heartbeat went stale (owner died
    // or lost the filesystem); the unlink+recreate race between two
    // reclaimers is settled by the exclusive create.
    const double age = lease_age_seconds(lease_path(shard));
    if (age > options_.lease_timeout_s) {
      fs::remove(lease_path(shard), ec);
      if (try_create_lease(shard)) {
        std::fprintf(stderr,
                     "sweepd: [%s] reclaimed stale lease for shard %zu "
                     "(age %.1fs > %.1fs)\n",
                     options_.owner.c_str(), shard, age,
                     options_.lease_timeout_s);
        SweepdObs& o = sweepd_obs();
        o.shards_claimed.add(1);
        o.shards_reclaimed.add(1);
        start_heartbeat(shard);
        return shard;
      }
    }
  }
  return std::nullopt;
}

void FileShardContext::start_heartbeat(std::size_t shard) {
  stop_heartbeat();
  hb_stop_ = false;
  const fs::path lease = lease_path(shard);
  const auto interval = std::chrono::duration<double>(
      std::max(0.01, options_.heartbeat_interval_s));
  heartbeat_ = std::thread([this, lease, interval] {
    std::unique_lock<std::mutex> lock(hb_mu_);
    while (!hb_cv_.wait_for(lock, interval, [this] { return hb_stop_; })) {
      // Rewriting the content bumps mtime — that IS the heartbeat.
      std::ofstream out(lease, std::ios::trunc);
      out << options_.owner << "\n";
      sweepd_obs().lease_renewals.add(1);
    }
  });
}

void FileShardContext::stop_heartbeat() {
  if (!heartbeat_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  heartbeat_.join();
}

void FileShardContext::note_progress(std::size_t shard) {
  // The periodic heartbeat thread already keeps the lease fresh during
  // long-running cells, so completions need no extra I/O here. The hook
  // doubles as the deterministic kill point for the durability tests:
  // with IHBD_SWEEPD_KILL_AFTER=N in the environment, the process
  // SIGKILLs itself on the N-th completed cell — after earlier cells were
  // checkpointed but before this one is, exactly like a machine dying
  // mid-shard. Replay benches finish in milliseconds, so an external
  // `kill -9` cannot reliably land mid-shard; this knob can.
  (void)shard;
  static const long kill_after = [] {
    const char* env = std::getenv("IHBD_SWEEPD_KILL_AFTER");
    return env != nullptr ? std::atol(env) : 0L;
  }();
  if (kill_after > 0) {
    static std::atomic<long> completed{0};
    if (completed.fetch_add(1) + 1 >= kill_after) {
      std::fprintf(stderr,
                   "sweepd: [%s] fault injection: SIGKILL after %ld "
                   "completed cells\n",
                   options_.owner.c_str(), kill_after);
      std::raise(SIGKILL);
    }
  }
}

void FileShardContext::publish_result(std::size_t shard, std::string payload) {
  stop_heartbeat();
  const std::string framed =
      serde::frame_record(kResultMagic, kResultVersion, payload);
  if (!serde::write_file_atomic(result_path(shard).string(), framed)) {
    throw ConfigError("sweepd: cannot write " + result_path(shard).string());
  }
  std::error_code ec;
  fs::remove(lease_path(shard), ec);
  SweepdObs& o = sweepd_obs();
  o.shards_completed.add(1);
  o.result_bytes.add(framed.size());
  collected_.emplace(shard, std::move(payload));
}

void FileShardContext::release(std::size_t shard) {
  stop_heartbeat();
  std::error_code ec;
  fs::remove(lease_path(shard), ec);
}

std::optional<std::vector<std::string>> FileShardContext::try_collect() {
  for (std::size_t shard = 0; shard < plan_.shards.size(); ++shard) {
    if (collected_.count(shard)) continue;
    const std::optional<std::string> bytes =
        serde::read_file(result_path(shard).string());
    if (!bytes.has_value()) return std::nullopt;
    std::string_view payload;
    const serde::FrameStatus status =
        serde::parse_record(*bytes, kResultMagic, kResultVersion, &payload);
    if (status != serde::FrameStatus::ok) {
      // A torn or corrupt result is deleted so the shard becomes claimable
      // again; this participant (or another) will re-execute it.
      std::fprintf(stderr,
                   "sweepd: [%s] discarding invalid result for shard %zu "
                   "(%s)\n",
                   options_.owner.c_str(), shard, serde::to_string(status));
      std::error_code ec;
      fs::remove(result_path(shard), ec);
      sweepd_obs().results_invalid.add(1);
      return std::nullopt;
    }
    collected_.emplace(shard, std::string(payload));
  }
  std::vector<std::string> all;
  all.reserve(plan_.shards.size());
  for (std::size_t shard = 0; shard < plan_.shards.size(); ++shard) {
    all.push_back(collected_.at(shard));
  }
  return all;
}

void FileShardContext::poll_wait() {
  if (has_deadline_ && std::chrono::steady_clock::now() > wait_deadline_) {
    throw ConfigError("sweepd: timed out after " +
                      std::to_string(options_.wait_timeout_s) +
                      "s waiting for shard results in " + sweep_dir_.string());
  }
  sweepd_obs().wait_polls.add(1);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(options_.poll_interval_s));
}

void FileShardContext::note_resumed_metrics(std::string_view metrics_bytes) {
  try {
    serde::Reader r(metrics_bytes);
    const obs::MetricsSnapshot snap = obs::MetricsSnapshot::load(r);
    r.expect_done("resumed metrics snapshot");
    std::lock_guard<std::mutex> lock(carried_mu_);
    carried_.merge(snap);
    has_carried_ = true;
  } catch (const ConfigError&) {
    // A snapshot from an incompatible writer: drop it — metrics are
    // best-effort observability, never worth failing a sweep over.
  }
}

void FileShardContext::end_sweep() {
  stop_heartbeat();
  collected_.clear();
}

bool FileShardContext::write_own_metrics(const obs::MetricsSnapshot& own) {
  obs::MetricsSnapshot merged;
  {
    std::lock_guard<std::mutex> lock(carried_mu_);
    if (has_carried_) merged = carried_;
  }
  merged.merge(own);
  serde::Writer w;
  merged.save(w);
  const std::string framed =
      serde::frame_record(kMetricsMagic, kMetricsVersion, w.buffer());
  const fs::path path = dir_ / "metrics" / (options_.owner + ".bin");
  return serde::write_file_atomic(path.string(), framed);
}

obs::MetricsSnapshot merge_metrics_dir(const std::string& run_dir) {
  obs::MetricsSnapshot merged;
  const fs::path metrics_dir = fs::path(run_dir) / "metrics";
  std::error_code ec;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(metrics_dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".bin") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    const std::optional<std::string> bytes = serde::read_file(file.string());
    if (!bytes.has_value()) continue;
    std::string_view payload;
    if (serde::parse_record(*bytes, kMetricsMagic, kMetricsVersion,
                            &payload) != serde::FrameStatus::ok) {
      std::fprintf(stderr, "sweepd: skipping invalid metrics file %s\n",
                   file.c_str());
      continue;
    }
    try {
      serde::Reader r(payload);
      merged.merge(obs::MetricsSnapshot::load(r));
    } catch (const ConfigError&) {
      std::fprintf(stderr, "sweepd: skipping undecodable metrics file %s\n",
                   file.c_str());
    }
  }
  return merged;
}

}  // namespace ihbd::sweepd
