#include "src/runtime/sweep.h"

#include <cmath>

#include "src/common/contracts.h"
#include "src/common/table.h"
#include "src/runtime/substream.h"

namespace ihbd::runtime {

Axis Axis::of_values(std::string name, std::vector<double> values,
                     const std::function<std::string(double)>& label_fn) {
  Axis axis;
  axis.name = std::move(name);
  axis.labels.reserve(values.size());
  for (const double v : values)
    axis.labels.push_back(label_fn ? label_fn(v) : Table::fmt(v));
  axis.values = std::move(values);
  return axis;
}

Axis Axis::of_labels(std::string name, std::vector<std::string> labels) {
  Axis axis;
  axis.name = std::move(name);
  axis.values.assign(labels.size(), std::numeric_limits<double>::quiet_NaN());
  axis.labels = std::move(labels);
  return axis;
}

std::size_t SweepSpec::cell_count() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.size();
  return n;
}

std::size_t flat_cell_index(const SweepSpec& spec,
                            const std::vector<std::size_t>& idx) {
  IHBD_EXPECTS(idx.size() == spec.axes.size());
  std::size_t flat = 0;
  for (std::size_t a = 0; a < idx.size(); ++a) {
    IHBD_EXPECTS(idx[a] < spec.axes[a].size());
    flat = flat * spec.axes[a].size() + idx[a];
  }
  return flat;
}

Rng trial_rng(const SweepSpec& spec, std::size_t cell, int trial) {
  return substream(spec.seed,
                   static_cast<std::uint64_t>(cell) *
                           static_cast<std::uint64_t>(spec.trials) +
                       static_cast<std::uint64_t>(trial));
}

namespace detail {

void validate_spec(const SweepSpec& spec) {
  IHBD_EXPECTS(spec.trials > 0);
  IHBD_EXPECTS(!spec.axes.empty());
  for (const auto& axis : spec.axes) {
    IHBD_EXPECTS(axis.size() > 0);
    IHBD_EXPECTS(axis.values.size() == axis.labels.size());
  }
}

std::vector<std::size_t> decode_cell(const SweepSpec& spec, std::size_t cell) {
  std::vector<std::size_t> idx(spec.axes.size());
  std::size_t rem = cell;
  for (std::size_t a = spec.axes.size(); a-- > 0;) {
    idx[a] = rem % spec.axes[a].size();
    rem /= spec.axes[a].size();
  }
  return idx;
}

}  // namespace detail

SweepResult run_sweep(const SweepSpec& spec, const TrialFn& fn, int threads,
                      ThreadPool* pool) {
  return run_sweep_reduce(
      spec, Accumulator(spec.keep_samples), fn,
      [](Accumulator& acc, double sample) {
        if (!std::isnan(sample)) acc.add(sample);
      },
      threads, pool);
}

}  // namespace ihbd::runtime
