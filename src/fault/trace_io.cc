#include "src/fault/trace_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "src/common/error.h"

namespace ihbd::fault {

void save_trace_csv(const FaultTrace& trace, std::ostream& out) {
  out.precision(17);  // lossless double round-trip
  out << "# nodes=" << trace.node_count()
      << " duration_days=" << trace.duration_days() << "\n";
  out << "node,start_day,end_day\n";
  for (const auto& e : trace.events())
    out << e.node << ',' << e.start_day << ',' << e.end_day << '\n';
}

bool save_trace_csv(const FaultTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  save_trace_csv(trace, out);
  return static_cast<bool>(out);
}

namespace {

[[noreturn]] void row_error(std::size_t line_no, const std::string& line,
                            const std::string& why) {
  throw ConfigError("trace CSV: " + why + " at line " +
                    std::to_string(line_no) + ": '" + line + "'");
}

/// Whole-field integer parse: "12abc" and "" are malformed, not 12.
int parse_int_field(const std::string& cell) {
  std::size_t used = 0;
  const int v = std::stoi(cell, &used);
  if (used != cell.size()) throw std::invalid_argument(cell);
  return v;
}

/// Whole-field finite double parse: trailing junk, nan and inf all reject.
double parse_double_field(const std::string& cell) {
  std::size_t used = 0;
  const double v = std::stod(cell, &used);
  if (used != cell.size() || !std::isfinite(v))
    throw std::invalid_argument(cell);
  return v;
}

}  // namespace

FaultTrace load_trace_csv(std::istream& in, int node_count,
                          double duration_days) {
  std::vector<FaultEvent> events;
  std::string line;
  std::size_t line_no = 0;
  double prev_start = 0.0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    // Skip a header row.
    if (line.find("node") != std::string::npos &&
        line.find_first_of("0123456789") == std::string::npos)
      continue;
    std::istringstream fields(line);
    std::string cell;
    FaultEvent e;
    try {
      if (!std::getline(fields, cell, ',')) throw std::invalid_argument(cell);
      e.node = parse_int_field(cell);
      if (!std::getline(fields, cell, ',')) throw std::invalid_argument(cell);
      e.start_day = parse_double_field(cell);
      if (!std::getline(fields, cell, ',')) throw std::invalid_argument(cell);
      e.end_day = parse_double_field(cell);
      if (std::getline(fields, cell, ',')) throw std::invalid_argument(cell);
    } catch (const std::exception&) {
      row_error(line_no, line, "malformed row");
    }
    // Row-level semantic checks carry the line number; the FaultTrace
    // constructor re-validates but can only say "somewhere in the trace".
    if (e.node < 0) row_error(line_no, line, "negative node id");
    if (node_count > 0 && e.node >= node_count)
      row_error(line_no, line,
                "node id >= node_count (" + std::to_string(node_count) + ")");
    if (e.start_day < 0.0) row_error(line_no, line, "negative start_day");
    if (e.end_day < e.start_day)
      row_error(line_no, line, "negative duration (end_day < start_day)");
    if (duration_days > 0.0 && e.end_day > duration_days)
      row_error(line_no, line,
                "end_day beyond trace duration (" +
                    std::to_string(duration_days) + ")");
    // save_trace_csv always writes events in start order; an out-of-order
    // row means a corrupt or hand-mangled file, not a real trace.
    if (!events.empty() && e.start_day < prev_start)
      row_error(line_no, line, "events not sorted by start_day");
    prev_start = e.start_day;
    events.push_back(e);
  }

  if (node_count <= 0) {
    int max_node = -1;
    for (const auto& e : events) max_node = std::max(max_node, e.node);
    node_count = max_node + 1;
    if (node_count <= 0)
      throw ConfigError("trace CSV: empty trace needs explicit node_count");
  }
  if (duration_days <= 0.0) {
    for (const auto& e : events)
      duration_days = std::max(duration_days, e.end_day);
    if (duration_days <= 0.0)
      throw ConfigError("trace CSV: cannot infer duration");
  }
  return FaultTrace(node_count, duration_days, std::move(events));
}

FaultTrace load_trace_csv_file(const std::string& path, int node_count,
                               double duration_days) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open trace file: " + path);
  return load_trace_csv(in, node_count, duration_days);
}

}  // namespace ihbd::fault
