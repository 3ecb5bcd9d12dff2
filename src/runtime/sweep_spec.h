// The declarative sweep description — axes, spec, scenario view and the
// per-(cell, trial) RNG substream derivation — kept apart from the
// execution engine in sweep.h (thread pool, obs, accumulators).
//
// Everything here is pure data + pure functions of that data: equal
// SweepSpecs derive identical cell decodings and identical trial RNG
// streams, which is what makes a sweep's result independent of how its
// (cell, trial) pairs are scheduled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace ihbd::runtime {

/// One scenario-grid dimension: a name plus per-level labels and optional
/// numeric values (values are NaN for purely categorical axes).
struct Axis {
  std::string name;
  std::vector<std::string> labels;
  std::vector<double> values;

  /// Numeric axis; labels default to Table-style fixed-precision rendering
  /// unless a label_fn is supplied.
  static Axis of_values(std::string name, std::vector<double> values,
                        const std::function<std::string(double)>& label_fn = {});
  /// Categorical axis (architectures, model names, ...).
  static Axis of_labels(std::string name, std::vector<std::string> labels);

  std::size_t size() const { return labels.size(); }
};

struct SweepSpec {
  std::uint64_t seed = 0;
  int trials = 1;            ///< Monte-Carlo trials per grid cell.
  std::vector<Axis> axes;    ///< row-major: last axis varies fastest.
  bool keep_samples = true;  ///< retain per-trial samples (percentiles).

  std::size_t cell_count() const;
};

/// View of one (cell, trial) handed to the trial function.
class Scenario {
 public:
  Scenario(const SweepSpec& spec, std::size_t cell,
           const std::vector<std::size_t>& idx, int trial)
      : spec_(&spec), cell_(cell), idx_(&idx), trial_(trial) {}

  std::size_t cell() const { return cell_; }
  int trial() const { return trial_; }
  const SweepSpec& spec() const { return *spec_; }
  /// Per-axis level index / numeric value / label.
  std::size_t index(std::size_t axis) const { return (*idx_)[axis]; }
  double value(std::size_t axis) const {
    return spec_->axes[axis].values[index(axis)];
  }
  const std::string& label(std::size_t axis) const {
    return spec_->axes[axis].labels[index(axis)];
  }

 private:
  const SweepSpec* spec_;
  std::size_t cell_;
  const std::vector<std::size_t>* idx_;
  int trial_;
};

/// Row-major flat index of a per-axis level tuple.
std::size_t flat_cell_index(const SweepSpec& spec,
                            const std::vector<std::size_t>& idx);

/// The RNG substream of one (cell, trial) pair: O(1), order-independent,
/// shared by the scalar and generic engines (and usable by callers that
/// need to re-materialize a trial's stream, e.g. to build its inputs ahead
/// of the sweep).
Rng trial_rng(const SweepSpec& spec, std::size_t cell, int trial);

namespace detail {
/// Abort on malformed specs (no axes, empty axis, label/value mismatch).
void validate_spec(const SweepSpec& spec);
/// Decode a row-major flat cell index into per-axis levels.
std::vector<std::size_t> decode_cell(const SweepSpec& spec, std::size_t cell);
}  // namespace detail

}  // namespace ihbd::runtime
