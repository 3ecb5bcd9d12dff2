// Fast-switch sessions (paper §5.2 / Appendix G.1): named per-node target
// configurations that the OCSTrx controller holds preloaded, so that a later
// switch pays only the 60-80 us hardware latency.
//
// Session names are interned once into a process-wide, append-only table
// and carried as a dense SessionId from then on — the same idiom as obs
// metric handles: resolve the name once (constructor, static) and keep the
// id. The reconfiguration hot path (has_session, apply_session, queued
// requests) then indexes flat per-node arrays instead of hashing strings.
// Ids are stable for the process lifetime and shared by all threads, but
// their numbering follows first-use order, so results never depend on an
// id's value: print session_name(id), never the id.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/phy/switch_matrix.h"

namespace ihbd::ocstrx {

using phy::OcsPath;

/// A session: the desired path for each bundle of the node.
/// Bundles absent from the map are left untouched.
using Session = std::map<std::uint32_t, OcsPath>;

/// Dense process-wide id of an interned session name.
struct SessionId {
  std::uint32_t index = 0;
  friend bool operator==(SessionId, SessionId) = default;
};

/// The id of `name`, interning it on first use. Thread-safe: a thread's
/// first lookups of a name take the table's mutex, repeats scan a small
/// per-thread cache. Hot paths still resolve once and keep the id.
SessionId intern_session(std::string_view name);

/// The name `id` was interned from.
const std::string& session_name(SessionId id);

}  // namespace ihbd::ocstrx
