// Mach-Zehnder interferometer (MZI) switch element with thermo-optic (TO)
// phase arms - the micro-structure the paper's OCS is built from (§4.1).
//
// An MZI element is a 2x2 optical switch: controlling the phase difference
// between its two arms routes the input to the "bar" or "cross" output
// through interference at the output combiner. The TO effect drives the
// phase arm; its response time bounds the reconfiguration latency.
#pragma once

namespace ihbd::phy {

/// Routing state of a 2x2 MZI element.
enum class MziState {
  kBar,    ///< input i -> output i (phase difference 0)
  kCross,  ///< input i -> output 1-i (phase difference pi)
};

/// Physical parameters of one MZI element. Defaults are calibrated so that
/// a 3-stage path reproduces the paper's measured loss/power envelopes.
struct MziParams {
  double insertion_loss_db = 0.60;   ///< mean per-element loss at 25 C
  double loss_temp_coeff_db = 0.002; ///< additional dB per degree C above 25
  double extinction_ratio_db = 25.0; ///< bar/cross isolation
  double to_drive_power_w = 0.50;    ///< TO heater power to hold pi phase @25C
  double power_temp_coeff = 6e-4;    ///< heater power drops as ambient rises
  double switch_time_us = 12.0;      ///< TO thermal time constant contribution
};

/// One thermo-optic MZI switch element.
class MziElement {
 public:
  explicit MziElement(const MziParams& params = {});

  MziState state() const { return state_; }
  void set_state(MziState s) { state_ = s; }

  /// Optical power transfer to the bar/cross ports for a given phase
  /// difference (radians). Ideal element: bar = cos^2, cross = sin^2 of
  /// (phase/2); finite extinction ratio adds a leakage floor.
  double transfer_bar(double phase_rad) const;
  double transfer_cross(double phase_rad) const;

  /// Phase difference the TO controller targets for the current state.
  double target_phase_rad() const;

  /// Mean insertion loss (dB) of this element at ambient temperature (C).
  double mean_loss_db(double temp_c) const;

  /// TO heater power (W) needed to hold the current state at `temp_c`.
  /// The cross state holds a pi phase shift (full heater drive); the bar
  /// state needs only a small trim drive.
  double hold_power_w(double temp_c) const;

  /// Crosstalk leakage ratio (linear) from the finite extinction ratio.
  double crosstalk_linear() const;

  const MziParams& params() const { return params_; }

 private:
  MziParams params_;
  MziState state_ = MziState::kBar;
};

}  // namespace ihbd::phy
