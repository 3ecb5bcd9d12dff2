// Physics-grounded fault trace generator: degradation instead of memoryless
// Poisson draws.
//
// Each node carries the health state of its weakest OCSTrx link: launch OMA
// set at (re)calibration, a laser/TO aging random walk that erodes it, and a
// mean-reverting MZI bias-drift penalty. Every monitor tick the generator
// evaluates the link through phy::BerModel — insertion loss and detector
// noise at the current hall temperature (phy::MziParams thermal
// coefficients) — and declares a fault when the measured BER crosses
// `ber_threshold`. Above BerParams::drift_onset_temp_c the TO phase trim
// also takes transient exponential-tail hits (the same mechanism as
// BerModel::measure_ber), so a hot hall fails marginal links in bursts.
//
// Most ticks are healthy by several dB, so a per-node bound decides them
// before the exact pow/log10 evaluation runs. Each node's temperature stays
// in [min hall + offset, max hall + offset]; loss and noise are linear in
// temperature, so the worse endpoint of each, plus a 1e-6 dB rounding
// slack, gives a floor with lb = eff_dbm - floor <= margin_db on every
// tick. When lb > 0 the threshold cannot fire: a cool tick is done, and a
// hot tick makes the transient draw bernoulli() would make and is done if
// that draw clears tp / (1 + x + x^2/2) >= tp * exp(-x), x = lb / scale
// (padded by 1e-6 relative). Skipping only ever replaces a test whose
// answer the bound already knows and makes the same draws, so the trace is
// byte-identical to evaluating every tick; the remaining ticks (about 0.4%
// of a 16-day storm trace, 11% over 348 days) run the exact code, which
// checks lb <= margin_db each time.
//
// Correlation enters twice:
//   * every node shares the hall temperature field (seasonal + diurnal
//     cycles plus stochastic cooling excursions), so thermal stress fails
//     many marginal transceivers together — correlated, bursty arrivals
//     with no cross-node sampling at all;
//   * optional failure STORMS take down a rack- or power-domain-aligned
//     blast radius at once (the contiguous-range geometry the ToR/PDU
//     incidents and topo::explosion_radius use), and the downed nodes queue
//     for a bounded repair-crew pool — big storms drain slowly, giving the
//     trace its long repair tails.
//
// Deterministic for a given config: one substream per node plus dedicated
// excursion/storm substreams, all derived from `seed`. Emits a standard
// FaultTrace, so every replay tier, bench and the control plane consume it
// unchanged; storm outages may overlap degradation outages on one node
// (nested intervals — see the FaultTrace overlap contract).
//
// Defaults are calibrated to the same PaperTraceStats targets as
// generator.h (mean 2.33%, p50 1.67%, p99 7.22% over 348 days of 8-GPU
// nodes) while being strictly burstier than the Poisson model (higher
// p99/p50 ratio) — tests/physics_fault_test.cc pins both properties.
#pragma once

#include <cstdint>

#include "src/fault/trace.h"
#include "src/phy/ber.h"
#include "src/phy/switch_matrix.h"

namespace ihbd::fault {

/// Which synthetic trace family a bench replays (--trace-model).
enum class TraceModel {
  kPoisson,  ///< generator.h: Poisson arrivals + cluster incidents
  kPhysics,  ///< degradation + shared thermal field (storms off)
  kStorm,    ///< degradation + correlated storms with crew-limited repair
};

/// Correlated-failure storm process (power/rack blast radius).
struct StormConfig {
  /// Storm arrival rate (storms/day). 0 disables the process.
  double rate_per_day = 0.0;
  /// Blast geometry: storms take out one rack (`nodes_per_rack` contiguous
  /// nodes) or, with `domain_prob`, a whole power domain
  /// (`racks_per_domain` racks) — rack-aligned, mirroring the fat-tree
  /// grouping the control plane places against.
  int nodes_per_rack = 8;
  int racks_per_domain = 4;
  double domain_prob = 0.3;
  /// Repair-crew pool: each downed node needs one crew for a log-normal
  /// work duration; with only `repair_crews` crews, repairs queue and a
  /// domain-wide storm drains over days (the long tail).
  int repair_crews = 3;
  double crew_work_mu = -1.4;     ///< log work, days (median ~0.25)
  double crew_work_sigma = 0.6;
};

struct PhysicsTraceConfig {
  int node_count = 375;          ///< ~3K GPUs at 8 GPUs/node
  double duration_days = 348.0;  ///< paper's collection window
  std::uint64_t seed = 2025;

  /// BER monitor cadence: the link is probed once per tick, and a probe
  /// over threshold declares the fault (hazard is per probe by design).
  double tick_days = 0.05;

  // --- hall temperature field (shared across nodes => correlation) ---
  double base_temp_c = 36.0;
  double seasonal_amp_c = 4.0;        ///< yearly swing
  double diurnal_amp_c = 3.0;         ///< daily swing
  double node_offset_sigma_c = 1.5;   ///< static per-node hot/cold spots
  /// Stochastic cooling excursions: Poisson arrivals, Gaussian amplitude,
  /// log-normal duration. The hall runs hot for the excursion, pushing the
  /// marginal tail of the fleet over threshold together.
  double excursion_rate_per_day = 0.12;
  double excursion_amp_mu_c = 6.2;
  double excursion_amp_sigma_c = 3.0;
  double excursion_duration_mu = -2.3;  ///< log days (median ~0.10)
  double excursion_duration_sigma = 0.5;

  // --- per-link health (weakest transceiver of the node) ---
  double oma_dbm_mean = -6.3;   ///< launch OMA right after (re)calibration
  double oma_dbm_sigma = 0.6;   ///< device spread (weakest-of-bundle)
  double aging_db_per_day = 0.085;  ///< mean laser/TO aging slope
  double aging_walk_db = 0.02;      ///< aging random walk, dB per sqrt(day)
  double drift_reversion_per_day = 1.0;  ///< MZI bias OU mean reversion
  double drift_sigma_db = 0.25;          ///< OU volatility, dB per sqrt(day)

  /// Probability that a TO drift transient occurs during one probe
  /// interval at all (the exponential tail then decides whether it eats
  /// the margin). Transients are discrete events, not a continuum.
  double transient_prob = 0.7;

  /// Measured BER above this declares the link (and node) faulty.
  double ber_threshold = 1e-9;

  /// Degradation repair = swap/recalibrate: log-normal, restores health.
  double repair_lognorm_mu = -0.69;   ///< median ~0.50 days
  double repair_lognorm_sigma = 0.55;

  // --- physical layer the health state is evaluated through ---
  phy::SwitchMatrixParams matrix;  ///< MZI geometry + thermal coefficients
  phy::BerParams ber;              ///< noise, drift onset, tester depth

  StormConfig storm;  ///< disabled unless storm.rate_per_day > 0
};

/// Generate a degradation-driven trace. Deterministic for a given config.
/// Throws ConfigError naming the offending field on invalid input.
FaultTrace generate_physics_trace(const PhysicsTraceConfig& config = {});

/// Calibrated defaults for `--trace-model physics`: storms off, thermal
/// excursions supply the bursty tail.
PhysicsTraceConfig physics_trace_defaults();

/// Calibrated defaults for `--trace-model storm`: excursions damped,
/// correlated storms + crew-limited repair supply the (longer) tail.
PhysicsTraceConfig storm_trace_defaults();

/// Canonical CLI spelling of a trace model ("poisson"/"physics"/"storm").
const char* trace_model_name(TraceModel model);

}  // namespace ihbd::fault
