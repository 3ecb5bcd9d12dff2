#include "src/phy/ber.h"

#include <algorithm>
#include <cmath>

#include "src/common/contracts.h"

namespace ihbd::phy {

BerModel::BerModel(const OcsSwitchMatrix& matrix, const BerParams& params)
    : matrix_(matrix), params_(params) {
  IHBD_EXPECTS(params.detector_noise_mw_25c > 0.0);
  IHBD_EXPECTS(params.measured_bits > 0.0);
}

double BerModel::q_factor(OcsPath path, double oma_mw, double temp_c) const {
  IHBD_EXPECTS(oma_mw >= 0.0);
  const double loss_db = matrix_.mean_insertion_loss_db(path, temp_c);
  const double rx_mw = oma_mw * std::pow(10.0, -loss_db / 10.0);
  return rx_mw / std::max(noise_mw(temp_c), 1e-6);
}

double BerModel::ber_from_q(double q) {
  if (q <= 0.0) return 0.5;
  return 0.5 * std::erfc(q / std::sqrt(2.0));
}

double BerModel::expected_ber(OcsPath path, double oma_mw,
                              double temp_c) const {
  return ber_from_q(q_factor(path, oma_mw, temp_c));
}

double BerModel::measure_ber(OcsPath path, double oma_mw, double temp_c,
                             Rng& rng) const {
  // Sample the actual loss of this unit / measurement.
  const double loss_db = matrix_.sample_insertion_loss_db(path, temp_c, rng);
  const double mean_db = matrix_.mean_insertion_loss_db(path, temp_c);
  double rx_db_delta = mean_db - loss_db;  // positive = better than mean

  // Transient TO drift penalty at elevated temperature: exponential tail,
  // mostly small, occasionally large enough to surface errors at low OMA.
  if (temp_c > params_.drift_onset_temp_c) {
    const double scale =
        params_.drift_penalty_db_per_c * (temp_c - params_.drift_onset_temp_c);
    rx_db_delta -= rng.exponential(1.0 / std::max(scale, 1e-9));
  }

  const double q =
      q_factor(path, oma_mw, temp_c) * std::pow(10.0, rx_db_delta / 10.0);
  const double ber = ber_from_q(q);

  // Instrument floor: a tester that ran `measured_bits` bits cannot resolve
  // BER below 1/measured_bits; such runs report 0 (as the paper plots).
  const double floor = 1.0 / params_.measured_bits;
  return ber < floor ? 0.0 : ber;
}

}  // namespace ihbd::phy
