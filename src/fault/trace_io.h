// Fault-trace persistence. The paper open-sourced its production trace
// (github.com/stepfun-ai/InfiniteHBD-Trace) as per-event records; this
// module reads/writes the same natural CSV shape so users can replay a
// real trace through every evaluation in this library:
//
//     node,start_day,end_day
//     17,3.25,3.75
//     ...
//
// Header row optional on load; '#' comment lines skipped.
#pragma once

#include <iosfwd>
#include <string>

#include "src/fault/trace.h"

namespace ihbd::fault {

/// Serialize a trace to CSV (with header and a metadata comment line).
void save_trace_csv(const FaultTrace& trace, std::ostream& out);
bool save_trace_csv(const FaultTrace& trace, const std::string& path);

/// Parse a trace from CSV. `node_count`/`duration_days` <= 0 are inferred
/// (max node id + 1, max end_day). Throws ConfigError (with the offending
/// line) on malformed rows — partial or non-finite fields, extra columns,
/// negative node ids or start days, end < start, node id >= an explicit
/// node_count (or INT_MAX when node_count is inferred), end_day beyond an
/// explicit duration, or rows not sorted by start_day (save_trace_csv always
/// writes them sorted).
FaultTrace load_trace_csv(std::istream& in, int node_count = 0,
                          double duration_days = 0.0);
FaultTrace load_trace_csv_file(const std::string& path, int node_count = 0,
                               double duration_days = 0.0);

}  // namespace ihbd::fault
