// Deterministic job-arrival workload for the control plane.
//
// Training-job arrivals are modelled as a Poisson process (exponential
// inter-arrival gaps) with lognormal run lengths and uniformly drawn job
// scales, pre-generated into a flat arrival list from one substream seed.
// Pre-generation (rather than drawing inside engine callbacks) is what
// makes control-plane runs replayable: the same
// WorkloadConfig always produces byte-identical arrivals regardless of
// event interleaving, so a sweep cell's trial substream fully determines
// its input stream.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace ihbd::ctrl {

struct WorkloadConfig {
  double arrival_rate_per_day = 200.0;  ///< Poisson arrival intensity
  double duration_days = 64.0;          ///< arrivals generated below this
  int tp_size_gpus = 32;                ///< t (fixed per fleet)
  int min_groups = 1;                   ///< job scale in TP groups,
  int max_groups = 8;                   ///<   uniform on [min, max]
  double mean_run_days = 0.06;          ///< lognormal mean of run length
  double run_sigma = 0.5;               ///< lognormal shape
};

/// One job arrival: `groups` TP groups of `tp_size_gpus`, running
/// `run_days` once placed.
struct JobArrival {
  int id = 0;
  double day = 0.0;
  int tp_size_gpus = 32;
  int groups = 1;
  double run_days = 0.0;
};

/// Generate the arrival stream for `cfg` from `rng` (draw order is part of
/// the format: gap, groups, run length - per arrival).
std::vector<JobArrival> generate_workload(const WorkloadConfig& cfg, Rng& rng);

}  // namespace ihbd::ctrl
