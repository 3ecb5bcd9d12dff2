// The OCS micro-structure inside the OCSTrx PIC (paper §4.1, Fig. 3b):
// two initial routing MZI elements choose between external outputs 1 & 2
// and the internal loopback path; an internal NxN MZI matrix implements the
// cross-lane loopback. External paths traverse fewer stages by design
// ("reduce stages count and light attenuation of output 1&2, while ensuring
// consistent light attenuation for them").
#pragma once

#include <vector>

#include "src/common/rng.h"
#include "src/phy/mzi.h"

namespace ihbd::phy {

/// The three Tx light paths an OCSTrx can activate (paper Fig. 2, left).
enum class OcsPath {
  kExternal1 = 0,  ///< primary neighbor link
  kExternal2 = 1,  ///< backup neighbor link
  kLoopback = 2,   ///< cross-lane intra-node loopback (ring construction)
};

/// Number of distinct OcsPath values.
inline constexpr int kOcsPathCount = 3;

/// Static configuration of the OCS switch matrix.
struct SwitchMatrixParams {
  int lane_count = 8;             ///< SerDes lane pairs (8x100G in 800G QSFP-DD)
  MziParams element;              ///< per-MZI physics
  double coupling_loss_db = 1.5;  ///< fiber/facet coupling, both ends
  double waveguide_loss_db = 0.0; ///< routing waveguide loss (folded into
                                  ///< coupling by default)
};

/// Physical model of the OCS switch matrix: per-path stage counts, insertion
/// loss (mean + sampled), TO drive power, and reconfiguration latency.
/// Calibrated defaults reproduce the paper's measured envelopes:
/// loss 2.5-4.0 dB with mean 3.3 dB at 25 C; core power < 3.2 W; 60-80 us
/// reconfiguration.
class OcsSwitchMatrix {
 public:
  explicit OcsSwitchMatrix(const SwitchMatrixParams& params = {});

  int lane_count() const { return params_.lane_count; }

  /// Number of MZI stages a signal traverses on a path. External paths take
  /// the two initial routing elements plus one combiner stage; the loopback
  /// additionally crosses the log2(N)-deep cross-lane matrix.
  int stages_for(OcsPath path) const;

  /// Mean end-to-end insertion loss (dB) at ambient temperature `temp_c`.
  /// Linear in `temp_c` (MziParams::loss_temp_coeff_db per C), so its
  /// maximum over a temperature range sits at an endpoint.
  double mean_insertion_loss_db(OcsPath path, double temp_c) const;

  /// One sampled loss measurement (device spread + measurement noise).
  double sample_insertion_loss_db(OcsPath path, double temp_c, Rng& rng) const;

  /// Core-module TO drive power (W) with `path` activated at `temp_c`.
  /// Counts held phase shifters across the initial routing elements and,
  /// for the loopback, the active matrix column.
  double drive_power_w(OcsPath path, double temp_c) const;

  /// Sampled hardware reconfiguration latency (uniform in [60, 80] us,
  /// per paper §5.1), in seconds.
  double sample_reconfig_latency_s(Rng& rng) const {
    return rng.uniform(kReconfigMinS, kReconfigMaxS);
  }
  static constexpr double kReconfigMinS = 60e-6;
  static constexpr double kReconfigMaxS = 80e-6;

  const SwitchMatrixParams& params() const { return params_; }

 private:
  SwitchMatrixParams params_;
  int matrix_depth_;  ///< ceil(log2(lane_count)) stages in the NxN matrix
};

}  // namespace ihbd::phy
