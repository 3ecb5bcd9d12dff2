// The declarative sweep description — axes, spec, scenario view and the
// per-(cell, trial) RNG substream derivation — split out of sweep.h so the
// shard planner (src/runtime/shard.h) can partition a spec without pulling
// in the execution engine (thread pool, obs, accumulators).
//
// Everything here is pure data + pure functions of that data: two
// processes that hold equal SweepSpecs derive identical cell decodings,
// identical trial RNG streams and identical shard plans, which is what
// makes a sweep distributable without any coordination beyond the spec.
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
  /// Folded into shard::spec_fingerprint alongside the fields above. The
  /// axes name a grid, not the data behind it — two sweeps over the same
  /// grid but different inputs (e.g. a full vs --quick fault trace) would
  /// otherwise hash identically and could adopt each other's shard results
  /// in a shared run directory. Callers salt with a digest of the inputs
  /// (replay_trace_grid hashes the trace). Purely an identity: does not
  /// perturb RNG streams or results.
  std::uint64_t fingerprint_salt = 0;

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
/// need to re-materialize a trial's stream, e.g. for resume or debugging).
/// This is why a shard checkpoint needs no RNG state beyond the list of
/// completed cells: every pending trial's stream is re-derived here.
Rng trial_rng(const SweepSpec& spec, std::size_t cell, int trial);

namespace detail {
/// Abort on malformed specs (no axes, empty axis, label/value mismatch).
void validate_spec(const SweepSpec& spec);
/// Decode a row-major flat cell index into per-axis levels.
std::vector<std::size_t> decode_cell(const SweepSpec& spec, std::size_t cell);
}  // namespace detail

}  // namespace ihbd::runtime
