#include "src/phy/switch_matrix.h"

#include <cmath>

#include "src/common/contracts.h"

namespace ihbd::phy {

namespace {
int ceil_log2(int n) {
  int d = 0;
  int v = 1;
  while (v < n) {
    v <<= 1;
    ++d;
  }
  return d;
}
}  // namespace

OcsSwitchMatrix::OcsSwitchMatrix(const SwitchMatrixParams& params)
    : params_(params), matrix_depth_(ceil_log2(params.lane_count)) {
  IHBD_EXPECTS(params.lane_count >= 2);
  IHBD_EXPECTS(params.coupling_loss_db >= 0.0);
}

int OcsSwitchMatrix::stages_for(OcsPath path) const {
  // Two initial routing MZIs + output combiner stage = 3 stages external.
  // The loopback re-enters the NxN matrix: + ceil(log2(N)) stages.
  switch (path) {
    case OcsPath::kExternal1:
    case OcsPath::kExternal2:
      return 3;
    case OcsPath::kLoopback:
      return 3 + matrix_depth_;
  }
  return 3;
}

double OcsSwitchMatrix::mean_insertion_loss_db(OcsPath path,
                                               double temp_c) const {
  const MziElement probe(params_.element);
  // The deeper matrix stages are optimized low-loss pass-throughs; weight
  // them at 40% of a routing element so the loopback stays within the same
  // measured envelope (the paper reports a single core-module distribution).
  const double routing_stages = 3.0;
  const double extra =
      0.4 * static_cast<double>(stages_for(path) - 3);
  return params_.coupling_loss_db + params_.waveguide_loss_db +
         (routing_stages + extra) * probe.mean_loss_db(temp_c);
}

double OcsSwitchMatrix::sample_insertion_loss_db(OcsPath path, double temp_c,
                                                 Rng& rng) const {
  const double mu = mean_insertion_loss_db(path, temp_c);
  // Device-to-device spread dominates: the paper's Fig. 11 histograms span
  // roughly 2.5..4.0 dB at 25 C => sigma ~= 0.28 dB around the 3.3 dB mean.
  const double sigma = 0.28 + 0.0008 * std::abs(temp_c - 25.0) * 2.0;
  double v = rng.normal(mu, sigma);
  const double lo = mu - 0.85;
  const double hi = mu + 0.85;
  if (v < lo) v = lo + (lo - v) * 0.25;  // soft reflection, keeps tails short
  if (v > hi) v = hi - (v - hi) * 0.25;
  return v;
}

double OcsSwitchMatrix::drive_power_w(OcsPath path, double temp_c) const {
  MziElement held(params_.element);
  held.set_state(MziState::kCross);
  MziElement trimmed(params_.element);
  trimmed.set_state(MziState::kBar);

  // Held (full-drive) shifters: the two initial routing elements per lane
  // direction plus, on the loopback, one matrix column element. Remaining
  // matrix elements sit at trim drive. Counts are per core module (all
  // lanes share the TO bias rails, modelled as 6 full-drive equivalents).
  double full_equiv = 5.6;  // external path 1
  if (path == OcsPath::kExternal2) full_equiv = 5.75;  // longer bias trace
  if (path == OcsPath::kLoopback) full_equiv = 6.0;    // + matrix column
  const double trim_equiv = 2.0;
  return full_equiv * held.hold_power_w(temp_c) +
         trim_equiv * trimmed.hold_power_w(temp_c);
}

}  // namespace ihbd::phy
