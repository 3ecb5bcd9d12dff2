#include "src/phy/mzi.h"

#include <algorithm>
#include <cmath>

#include "src/common/contracts.h"

namespace ihbd::phy {

MziElement::MziElement(const MziParams& params) : params_(params) {
  IHBD_EXPECTS(params.insertion_loss_db > 0.0);
  IHBD_EXPECTS(params.extinction_ratio_db > 0.0);
}

double MziElement::transfer_bar(double phase_rad) const {
  const double ideal = std::cos(phase_rad / 2.0);
  const double leak = crosstalk_linear();
  return std::clamp(ideal * ideal * (1.0 - leak) + leak * 0.5, 0.0, 1.0);
}

double MziElement::transfer_cross(double phase_rad) const {
  const double ideal = std::sin(phase_rad / 2.0);
  const double leak = crosstalk_linear();
  return std::clamp(ideal * ideal * (1.0 - leak) + leak * 0.5, 0.0, 1.0);
}

double MziElement::target_phase_rad() const {
  return state_ == MziState::kCross ? M_PI : 0.0;
}

double MziElement::mean_loss_db(double temp_c) const {
  return params_.insertion_loss_db +
         params_.loss_temp_coeff_db * (temp_c - 25.0);
}

double MziElement::hold_power_w(double temp_c) const {
  // TO heaters hold a phase offset above ambient: as the ambient rises the
  // required heater power falls slightly (matches Fig. 10b's downward trend).
  const double scale = 1.0 - params_.power_temp_coeff * (temp_c - 25.0);
  const double full = params_.to_drive_power_w * std::max(scale, 0.5);
  return state_ == MziState::kCross ? full : 0.15 * full;
}

double MziElement::crosstalk_linear() const {
  return std::pow(10.0, -params_.extinction_ratio_db / 10.0);
}

}  // namespace ihbd::phy
