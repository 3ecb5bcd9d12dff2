// Durable, versioned, checksummed checkpoints for shard executors.
//
// A checkpoint file is a serde record frame (magic "IHCK", version 2)
// whose payload is an opaque byte string chosen by the caller (the sweep
// executor stores an encoded shard::ShardPayload: the shard's completed
// cells with their serialized accumulators, plus an obs metrics
// snapshot). Version 1 frames carried per-cell trial ranges; they load as
// bad_version, so their shard re-runs instead of being misread.
//
// Durability model — two generations, atomic rotation:
//   write(path, payload):  <path>.tmp.<pid>  --rename-->  keeps old <path>
//                          old <path>        --rename-->  <path>.1
//                          tmp               --rename-->  <path>
// A SIGKILL at any instant leaves either the old generation, the new one,
// or both — never a world with only a torn file, because renames are
// atomic and the previous generation survives until the new one is in
// place. load_with_fallback() tries <path> first and falls back to
// <path>.1 when the primary is missing or fails frame validation
// (truncated / bad checksum / wrong version), reporting what happened so
// tests and operators can see corruption being caught.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ihbd::runtime::checkpoint {

inline constexpr std::uint32_t kMagic = 0x4B434849;  // "IHCK" little-endian
inline constexpr std::uint32_t kVersion = 2;

enum class LoadStatus {
  ok,
  missing,       ///< file does not exist (first run: not an error)
  truncated,     ///< short read / torn write
  bad_magic,     ///< not a checkpoint file
  bad_version,   ///< written by an incompatible executor
  bad_checksum,  ///< payload corrupted on disk
};
const char* to_string(LoadStatus status);

/// Persist `payload` durably at `path`, rotating any existing checkpoint to
/// `<path>.1` first. Returns false on IO failure (the previous generations
/// are left untouched). Records sweepd.checkpoint_* obs metrics, counting
/// each failed call in sweepd.checkpoint_write_failures.
bool write(const std::string& path, std::string_view payload);

/// Validate and decode one checkpoint generation.
struct LoadResult {
  LoadStatus status = LoadStatus::missing;
  std::string payload;  ///< valid only when status == ok
};
LoadResult load_file(const std::string& path);

/// Newest valid generation of the checkpoint at `path`.
struct Recovered {
  bool valid = false;
  int generation = -1;      ///< 0 = <path>, 1 = <path>.1
  std::string payload;      ///< valid only when valid
  LoadStatus primary = LoadStatus::missing;   ///< what <path> looked like
  LoadStatus fallback = LoadStatus::missing;  ///< what <path>.1 looked like
};

/// Try `<path>`, then `<path>.1`. A corrupt primary with a valid previous
/// generation yields {valid, generation=1} — the executor resumes from the
/// older state and simply re-runs the work completed since (deterministic
/// trials make the re-execution bit-identical).
Recovered load_with_fallback(const std::string& path);

}  // namespace ihbd::runtime::checkpoint
