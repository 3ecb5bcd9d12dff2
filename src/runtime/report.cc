#include "src/runtime/report.h"

#include "src/common/contracts.h"

namespace ihbd::runtime {

Table to_table(const SweepResult& result, const ReportSpec& report) {
  const auto& axes = result.spec.axes;
  IHBD_EXPECTS(report.row_axis < axes.size());
  IHBD_EXPECTS(report.col_axis < axes.size());
  IHBD_EXPECTS(report.row_axis != report.col_axis);
  // Every non-row/col axis must be pinned to exactly one level.
  std::vector<std::size_t> idx(axes.size(), 0);
  std::vector<bool> pinned(axes.size(), false);
  pinned[report.row_axis] = pinned[report.col_axis] = true;
  for (const auto& [axis, level] : report.fixed) {
    IHBD_EXPECTS(axis < axes.size() && level < axes[axis].size());
    idx[axis] = level;
    pinned[axis] = true;
  }
  for (bool p : pinned) IHBD_EXPECTS(p);

  const auto format = report.format
                          ? report.format
                          : std::function([](double v) { return Table::fmt(v); });

  const Axis& rows = axes[report.row_axis];
  const Axis& cols = axes[report.col_axis];

  // Drop columns that are empty on every row.
  std::vector<std::size_t> live_cols;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    bool any = false;
    for (std::size_t r = 0; r < rows.size() && !any; ++r) {
      idx[report.row_axis] = r;
      idx[report.col_axis] = c;
      any = !result.cell(idx).empty();
    }
    if (any) live_cols.push_back(c);
  }

  Table table(report.title);
  std::vector<std::string> header{rows.name};
  for (std::size_t c : live_cols) header.push_back(cols.labels[c]);
  table.set_header(header);

  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::string> row{rows.labels[r]};
    for (std::size_t c : live_cols) {
      idx[report.row_axis] = r;
      idx[report.col_axis] = c;
      const Accumulator& acc = result.cell(idx);
      row.push_back(acc.empty() ? "-" : format(acc.mean()));
    }
    table.add_row(row);
  }
  return table;
}

}  // namespace ihbd::runtime
