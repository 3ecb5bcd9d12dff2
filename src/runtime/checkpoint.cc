#include "src/runtime/checkpoint.h"

#include <chrono>
#include <filesystem>
#include <optional>

#include <unistd.h>

#include "src/common/serde.h"
#include "src/obs/metrics.h"

namespace ihbd::runtime::checkpoint {

namespace {

namespace fs = std::filesystem;

struct CheckpointObs {
  obs::Counter& writes;
  obs::Counter& bytes;
  obs::Counter& write_ns;
  obs::Counter& write_failures;
  obs::Counter& loads;
  obs::Counter& fallbacks;
  obs::Counter& corrupt;
};

CheckpointObs& ckpt_obs() {
  static CheckpointObs o{obs::counter("sweepd.checkpoint_writes"),
                         obs::counter("sweepd.checkpoint_bytes"),
                         obs::counter("sweepd.checkpoint_write_ns"),
                         obs::counter("sweepd.checkpoint_write_failures"),
                         obs::counter("sweepd.checkpoint_loads"),
                         obs::counter("sweepd.checkpoint_fallbacks"),
                         obs::counter("sweepd.checkpoint_corrupt")};
  return o;
}

LoadStatus from_frame_status(serde::FrameStatus status) {
  switch (status) {
    case serde::FrameStatus::ok: return LoadStatus::ok;
    case serde::FrameStatus::truncated: return LoadStatus::truncated;
    case serde::FrameStatus::bad_magic: return LoadStatus::bad_magic;
    case serde::FrameStatus::bad_version: return LoadStatus::bad_version;
    case serde::FrameStatus::bad_checksum: return LoadStatus::bad_checksum;
  }
  return LoadStatus::truncated;
}

}  // namespace

const char* to_string(LoadStatus status) {
  switch (status) {
    case LoadStatus::ok: return "ok";
    case LoadStatus::missing: return "missing";
    case LoadStatus::truncated: return "truncated";
    case LoadStatus::bad_magic: return "bad-magic";
    case LoadStatus::bad_version: return "bad-version";
    case LoadStatus::bad_checksum: return "bad-checksum";
  }
  return "unknown";
}

bool write(const std::string& path, std::string_view payload) {
  const bool obs_on = obs::enabled();
  const auto t0 = obs_on ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  const std::string framed = serde::frame_record(kMagic, kVersion, payload);
  const auto fail = [obs_on] {
    if (obs_on) ckpt_obs().write_failures.add(1);
    return false;
  };

  // Stage the new generation under a per-process unique name so two owners
  // racing after a lease reclaim never share a temp file.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  {
    std::error_code ec;
    fs::remove(tmp, ec);
  }
  if (!serde::write_file_atomic(tmp, framed)) return fail();

  std::error_code ec;
  if (fs::exists(path, ec)) {
    fs::rename(path, path + ".1", ec);
    if (ec) {
      fs::remove(tmp, ec);
      return fail();
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return fail();
  }

  if (obs_on) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    CheckpointObs& o = ckpt_obs();
    o.writes.add(1);
    o.bytes.add(framed.size());
    o.write_ns.add(static_cast<std::uint64_t>(ns));
  }
  return true;
}

LoadResult load_file(const std::string& path) {
  LoadResult result;
  const std::optional<std::string> bytes = serde::read_file(path);
  if (!bytes.has_value()) {
    result.status = LoadStatus::missing;
    return result;
  }
  std::string_view payload;
  const serde::FrameStatus frame =
      serde::parse_record(*bytes, kMagic, kVersion, &payload);
  result.status = from_frame_status(frame);
  if (result.status == LoadStatus::ok) {
    result.payload.assign(payload);
  } else if (obs::enabled()) {
    ckpt_obs().corrupt.add(1);
  }
  return result;
}

Recovered load_with_fallback(const std::string& path) {
  Recovered rec;
  LoadResult primary = load_file(path);
  rec.primary = primary.status;
  if (primary.status == LoadStatus::ok) {
    rec.valid = true;
    rec.generation = 0;
    rec.payload = std::move(primary.payload);
    if (obs::enabled()) ckpt_obs().loads.add(1);
    return rec;
  }
  LoadResult fallback = load_file(path + ".1");
  rec.fallback = fallback.status;
  if (fallback.status == LoadStatus::ok) {
    rec.valid = true;
    rec.generation = 1;
    rec.payload = std::move(fallback.payload);
    if (obs::enabled()) {
      CheckpointObs& o = ckpt_obs();
      o.loads.add(1);
      o.fallbacks.add(1);
    }
  }
  return rec;
}

}  // namespace ihbd::runtime::checkpoint
