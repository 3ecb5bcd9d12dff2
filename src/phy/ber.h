// Bit-error-rate model for the OCSTrx optical link (paper Fig. 12).
//
// Physics: the received optical modulation amplitude (OMA) after insertion
// loss drives a photodetector; thermal + shot noise at the TIA determine a
// Q factor, and BER = 0.5 * erfc(Q / sqrt(2)). At elevated ambient
// temperature the TO phase trim drifts between calibrations, occasionally
// adding a transient penalty -- which is why the paper observes zero BER at
// -5/25 C but occasional errors at very low OMA at 50/75 C.
//
// A real BER tester counts finitely many bits, so measured BER below the
// instrument floor reports as exactly 0; the model reproduces that too.
#pragma once

#include "src/common/rng.h"
#include "src/phy/switch_matrix.h"

namespace ihbd::phy {

struct BerParams {
  double detector_noise_mw_25c = 0.009;   ///< input-referred noise at 25 C
  double noise_temp_coeff = 0.0065;       ///< fractional noise growth per C
  double drift_onset_temp_c = 40.0;       ///< TO drift negligible below this
  double drift_penalty_db_per_c = 0.023;  ///< mean transient penalty scale
  double measured_bits = 1e13;            ///< BER tester depth (floor 1e-13)
};

/// BER model bound to a switch matrix (for its insertion loss).
class BerModel {
 public:
  explicit BerModel(const OcsSwitchMatrix& matrix, const BerParams& params = {});

  /// Q factor for a given transmit OMA (mW), path and ambient temperature,
  /// before any transient drift penalty: the received OMA after the path's
  /// mean insertion loss over max(noise_mw(temp_c), 1e-6). Loss and noise
  /// are both linear in temperature, so over a temperature range the
  /// worst of either sits at an endpoint (the physics trace generator's
  /// per-node margin bound relies on this).
  double q_factor(OcsPath path, double oma_mw, double temp_c) const;

  /// Input-referred detector noise (mW) at ambient `temp_c`: linear in
  /// temperature around the 25 C figure.
  double noise_mw(double temp_c) const {
    return params_.detector_noise_mw_25c *
           (1.0 + params_.noise_temp_coeff * (temp_c - 25.0));
  }

  /// Analytic BER from a Q factor: 0.5 * erfc(Q / sqrt(2)).
  static double ber_from_q(double q);

  /// Expected (analytic) BER with no transient penalty.
  double expected_ber(OcsPath path, double oma_mw, double temp_c) const;

  /// One simulated BER *measurement*: samples the insertion loss and - at
  /// elevated temperature - a transient TO drift penalty, then applies the
  /// instrument floor (returns exactly 0 below 1/measured_bits).
  double measure_ber(OcsPath path, double oma_mw, double temp_c,
                     Rng& rng) const;

  const BerParams& params() const { return params_; }

 private:
  const OcsSwitchMatrix& matrix_;
  BerParams params_;
};

}  // namespace ihbd::phy
