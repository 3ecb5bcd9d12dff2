// Report layer: project a SweepResult onto the repo's existing Table/CSV
// output path. A report picks one axis for rows and one for columns, fixes
// every other axis at a chosen level, reduces each cell's Accumulator to its
// mean and formats it (Table::fmt by default). The row-label column is
// headed by the row axis name.
//
// Cells left empty by NaN-returning trials render as "-"; columns that are
// empty for every row (e.g. NVL-36 at TP-64) are dropped, matching how the
// paper omits unsupported architectures from its plots.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/table.h"
#include "src/runtime/sweep.h"

namespace ihbd::runtime {

struct ReportSpec {
  std::string title;
  std::size_t row_axis = 0;
  std::size_t col_axis = 1;
  /// Levels for every axis that is neither row nor col: (axis, level).
  std::vector<std::pair<std::size_t, std::size_t>> fixed;
  /// Cell mean -> cell text; default Table::fmt.
  std::function<std::string(double)> format;
};

/// Render one 2-D slice of the sweep as a Table.
Table to_table(const SweepResult& result, const ReportSpec& report);

}  // namespace ihbd::runtime
