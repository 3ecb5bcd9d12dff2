#include "src/fault/physics_generator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/contracts.h"
#include "src/common/error.h"

namespace ihbd::fault {
namespace {

void validate(const PhysicsTraceConfig& c) {
  const auto require = [](bool ok, const char* field, const char* what) {
    if (!ok)
      throw ConfigError(std::string("PhysicsTraceConfig.") + field + " " +
                        what);
  };
  require(c.node_count > 0, "node_count", "must be > 0");
  // +inf passes "> 0" and would reach the size_t cast of the tick count.
  require(c.duration_days > 0.0 && std::isfinite(c.duration_days),
          "duration_days", "must be finite and > 0");
  require(c.tick_days > 0.0 && std::isfinite(c.tick_days), "tick_days",
          "must be finite and > 0");
  require(c.seasonal_amp_c >= 0.0, "seasonal_amp_c", "must be >= 0");
  require(c.diurnal_amp_c >= 0.0, "diurnal_amp_c", "must be >= 0");
  require(c.node_offset_sigma_c >= 0.0, "node_offset_sigma_c",
          "must be >= 0");
  require(c.excursion_rate_per_day >= 0.0, "excursion_rate_per_day",
          "must be >= 0");
  require(c.excursion_amp_sigma_c >= 0.0, "excursion_amp_sigma_c",
          "must be >= 0");
  require(c.excursion_duration_sigma >= 0.0, "excursion_duration_sigma",
          "must be >= 0");
  require(c.oma_dbm_sigma >= 0.0, "oma_dbm_sigma", "must be >= 0");
  require(c.aging_db_per_day >= 0.0, "aging_db_per_day", "must be >= 0");
  require(c.aging_walk_db >= 0.0, "aging_walk_db", "must be >= 0");
  require(c.drift_reversion_per_day >= 0.0, "drift_reversion_per_day",
          "must be >= 0");
  require(c.drift_sigma_db >= 0.0, "drift_sigma_db", "must be >= 0");
  require(c.transient_prob >= 0.0 && c.transient_prob <= 1.0,
          "transient_prob", "must be in [0, 1]");
  require(c.ber_threshold > 0.0 && c.ber_threshold < 0.5, "ber_threshold",
          "must be in (0, 0.5)");
  require(c.repair_lognorm_sigma >= 0.0, "repair_lognorm_sigma",
          "must be >= 0");
  // Means and coefficients with no range of their own must still be
  // finite: a NaN or an infinity would flow through the temperature and
  // link model into every tick's fault decision.
  const auto require_finite = [&](double v, const char* field) {
    require(std::isfinite(v), field, "must be finite");
  };
  require_finite(c.base_temp_c, "base_temp_c");
  require_finite(c.excursion_amp_mu_c, "excursion_amp_mu_c");
  require_finite(c.excursion_duration_mu, "excursion_duration_mu");
  require_finite(c.oma_dbm_mean, "oma_dbm_mean");
  require_finite(c.repair_lognorm_mu, "repair_lognorm_mu");
  require_finite(c.ber.noise_temp_coeff, "ber.noise_temp_coeff");
  require_finite(c.ber.drift_onset_temp_c, "ber.drift_onset_temp_c");
  require_finite(c.matrix.element.loss_temp_coeff_db,
                 "matrix.element.loss_temp_coeff_db");
  // The physical layer: checked here so that a bad value names its field
  // instead of tripping a contract in phy::. drift_penalty_db_per_c >= 0
  // also keeps the transient probability in [0, 1] and the margin bound's
  // skip test sound.
  require(c.ber.drift_penalty_db_per_c >= 0.0 &&
              std::isfinite(c.ber.drift_penalty_db_per_c),
          "ber.drift_penalty_db_per_c", "must be finite and >= 0");
  require(c.ber.detector_noise_mw_25c > 0.0, "ber.detector_noise_mw_25c",
          "must be > 0");
  require(c.ber.measured_bits > 0.0, "ber.measured_bits", "must be > 0");
  require(c.matrix.lane_count >= 2, "matrix.lane_count", "must be >= 2");
  require(c.matrix.coupling_loss_db >= 0.0, "matrix.coupling_loss_db",
          "must be >= 0");
  require(c.matrix.waveguide_loss_db >= 0.0 &&
              std::isfinite(c.matrix.waveguide_loss_db),
          "matrix.waveguide_loss_db", "must be finite and >= 0");
  require(c.matrix.element.insertion_loss_db > 0.0,
          "matrix.element.insertion_loss_db", "must be > 0");
  require(c.matrix.element.extinction_ratio_db > 0.0,
          "matrix.element.extinction_ratio_db", "must be > 0");
  require(c.storm.rate_per_day >= 0.0, "storm.rate_per_day",
          "must be >= 0");
  if (c.storm.rate_per_day > 0.0) {
    require(c.storm.nodes_per_rack > 0, "storm.nodes_per_rack",
            "must be > 0");
    require(c.storm.racks_per_domain > 0, "storm.racks_per_domain",
            "must be > 0");
    require(c.storm.domain_prob >= 0.0 && c.storm.domain_prob <= 1.0,
            "storm.domain_prob", "must be in [0, 1]");
    require(c.storm.repair_crews > 0, "storm.repair_crews", "must be > 0");
    require(c.storm.crew_work_sigma >= 0.0, "storm.crew_work_sigma",
            "must be >= 0");
    require_finite(c.storm.crew_work_mu, "storm.crew_work_mu");
  }
}

/// Q factor whose analytic BER equals `ber_threshold` (bisection: BER is
/// strictly decreasing in Q).
double q_for_ber(double ber_threshold) {
  double lo = 0.0, hi = 40.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (phy::BerModel::ber_from_q(mid) > ber_threshold)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

/// Non-overlapping hall-wide cooling excursions.
struct Excursion {
  double start, end, amp_c;
};

std::vector<Excursion> draw_excursions(const PhysicsTraceConfig& c,
                                       Rng& rng) {
  std::vector<Excursion> out;
  if (c.excursion_rate_per_day <= 0.0) return out;
  double day = 0.0;
  while (true) {
    day += rng.exponential(c.excursion_rate_per_day);
    if (day >= c.duration_days) break;
    const double amp =
        std::max(0.0, rng.normal(c.excursion_amp_mu_c, c.excursion_amp_sigma_c));
    const double dur =
        rng.lognormal(c.excursion_duration_mu, c.excursion_duration_sigma);
    out.push_back({day, std::min(day + dur, c.duration_days), amp});
    day += dur;  // the hall recovers before the next excursion can start
  }
  return out;
}

/// Correlated storms: rack-/domain-aligned blast radii whose nodes queue
/// for a bounded crew pool (crew availability carries across storms).
void append_storm_events(const PhysicsTraceConfig& c, Rng& rng,
                         std::vector<FaultEvent>& events) {
  const StormConfig& s = c.storm;
  if (s.rate_per_day <= 0.0) return;
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      crew_free;
  for (int i = 0; i < s.repair_crews; ++i) crew_free.push(0.0);
  double day = 0.0;
  while (true) {
    day += rng.exponential(s.rate_per_day);
    if (day >= c.duration_days) break;
    const bool whole_domain = rng.bernoulli(s.domain_prob);
    const int blast =
        whole_domain ? s.nodes_per_rack * s.racks_per_domain : s.nodes_per_rack;
    // Rack-aligned epicenter: the blast is a whole rack (or power domain),
    // never an arbitrary offset — matching how a PDU/ToR failure lands.
    const int units = (c.node_count + blast - 1) / blast;
    const int first =
        blast * static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(units)));
    const int last = std::min(first + blast, c.node_count);
    for (int node = first; node < last; ++node) {
      const double work = rng.lognormal(s.crew_work_mu, s.crew_work_sigma);
      const double crew_at = crew_free.top();
      crew_free.pop();
      const double done = std::max(day, crew_at) + work;
      crew_free.push(done);
      events.push_back(
          FaultEvent{node, day, std::min(done, c.duration_days)});
    }
  }
}

}  // namespace

FaultTrace generate_physics_trace(const PhysicsTraceConfig& config) {
  validate(config);
  Rng master(config.seed);
  Rng excursion_rng(master.next());
  Rng storm_rng(master.next());
  std::vector<std::uint64_t> node_seeds(
      static_cast<std::size_t>(config.node_count));
  for (auto& s : node_seeds) s = master.next();

  const auto excursions = draw_excursions(config, excursion_rng);

  // Hall temperature per tick (shared by every node): deterministic
  // seasonal + diurnal cycles plus the stochastic excursions.
  const double dt = config.tick_days;
  const std::size_t ticks =
      static_cast<std::size_t>(std::ceil(config.duration_days / dt));
  std::vector<double> hall(ticks, config.base_temp_c);
  {
    constexpr double kTwoPi = 6.283185307179586;
    std::size_t e = 0;
    for (std::size_t i = 0; i < ticks; ++i) {
      const double t = static_cast<double>(i + 1) * dt;
      hall[i] += config.seasonal_amp_c * std::sin(kTwoPi * t / 365.25) +
                 config.diurnal_amp_c * std::sin(kTwoPi * t);
      while (e < excursions.size() && excursions[e].end <= t) ++e;
      if (e < excursions.size() && excursions[e].start <= t)
        hall[i] += excursions[e].amp_c;
    }
  }

  const phy::OcsSwitchMatrix matrix(config.matrix);
  const phy::BerModel model(matrix, config.ber);
  const double q_thr = q_for_ber(config.ber_threshold);
  const double sqrt_dt = std::sqrt(dt);

  // Hall temperature range; a NaN anywhere makes both ends NaN, so every
  // bound formed from them is NaN and no tick is skipped.
  double hall_lo = hall.empty() ? 0.0 : hall[0];
  double hall_hi = hall_lo;
  for (const double h : hall) {
    if (std::isnan(h)) {
      hall_lo = hall_hi = h;
      break;
    }
    hall_lo = std::min(hall_lo, h);
    hall_hi = std::max(hall_hi, h);
  }

  std::vector<FaultEvent> events;
  for (int node = 0; node < config.node_count; ++node) {
    Rng rng(node_seeds[static_cast<std::size_t>(node)]);
    const double offset_c = rng.normal(0.0, config.node_offset_sigma_c);
    double oma_dbm = rng.normal(config.oma_dbm_mean, config.oma_dbm_sigma);
    double age_db = 0.0;
    double drift_db = 0.0;
    // Per-node floor under the exact margin: margin_db = eff_dbm - loss_db
    // - 10 log10(noise) - 10 log10(q_thr), and every tick's temp_c lies in
    // [t_lo, t_hi] (FP addition is monotone). Loss and noise are linear in
    // temperature, so their maxima over the range sit at an endpoint; the
    // slack covers the rounding of pow/log10 on the exact path. Hence
    // lb = eff_dbm - floor_db never exceeds margin_db.
    const double t_lo = hall_lo + offset_c;
    const double t_hi = hall_hi + offset_c;
    const auto loss_db = [&matrix](double temp_c) {
      return matrix.mean_insertion_loss_db(phy::OcsPath::kExternal1, temp_c);
    };
    const double noise_mw =
        std::max({model.noise_mw(t_lo), model.noise_mw(t_hi), 1e-6});
    const double floor_db = std::max(loss_db(t_lo), loss_db(t_hi)) +
                            10.0 * std::log10(noise_mw) +
                            10.0 * std::log10(q_thr) + 1e-6;
    for (std::size_t i = 0; i < ticks; ++i) {
      const double t = static_cast<double>(i + 1) * dt;
      const double temp_c =
          hall[i] + offset_c;
      // Laser/TO aging: drifting random walk, floored at fresh.
      age_db += config.aging_db_per_day * dt +
                config.aging_walk_db * sqrt_dt * rng.normal();
      age_db = std::max(age_db, 0.0);
      // MZI bias error: mean-reverting OU walk; either sign costs light.
      drift_db += -config.drift_reversion_per_day * drift_db * dt +
                  config.drift_sigma_db * sqrt_dt * rng.normal();
      const double eff_dbm = oma_dbm - age_db - std::fabs(drift_db);
      // Above the drift onset the TO trim takes a transient penalty with
      // this exponential tail (as in BerModel::measure_ber).
      const bool hot = temp_c > config.ber.drift_onset_temp_c;
      const double scale = config.ber.drift_penalty_db_per_c *
                           (temp_c - config.ber.drift_onset_temp_c);
      const double lb = eff_dbm - floor_db;
      // The transient draw, made ahead of the exact margin when the bound
      // alone may decide the tick; -1 while not drawn.
      double u = -1.0;
      if (lb > 0.0) {
        // margin_db >= lb > 0: the threshold test cannot fire, and a cool
        // tick draws nothing.
        if (!hot) continue;
        // The one draw bernoulli() would make. With x = lb / scale,
        // exp(-margin_db / scale) <= exp(-x) <= 1 / (1 + x + x^2 / 2), so
        // u at or above that bound (padded for rounding) fails the exact
        // test too.
        u = rng.uniform();
        const double x = lb / scale;
        if (u >= config.transient_prob * (1.0 + 1e-6) /
                     (1.0 + x + 0.5 * x * x))
          continue;
      }
      const double oma_mw = std::pow(10.0, eff_dbm / 10.0);
      const double q =
          model.q_factor(phy::OcsPath::kExternal1, oma_mw, temp_c);
      const double margin_db = 10.0 * std::log10(std::max(q, 1e-12) / q_thr);
      IHBD_EXPECTS(!(margin_db < lb));
      bool down = margin_db <= 0.0;
      if (!down && hot) {
        // The monitor probe fails when the transient eats the whole margin.
        const double p = config.transient_prob * std::exp(-margin_db / scale);
        IHBD_EXPECTS(p >= 0.0 && p <= 1.0);
        if (u < 0.0) u = rng.uniform();
        down = u < p;
      }
      if (!down) continue;
      const double repair = rng.lognormal(config.repair_lognorm_mu,
                                          config.repair_lognorm_sigma);
      events.push_back(
          FaultEvent{node, t, std::min(t + repair, config.duration_days)});
      // Repair recalibrates the link: fresh OMA draw, aging/drift reset;
      // no health evolves while the node is down.
      oma_dbm = rng.normal(config.oma_dbm_mean, config.oma_dbm_sigma);
      age_db = 0.0;
      drift_db = 0.0;
      const double resume = t + repair;
      if (resume >= config.duration_days) break;
      // Fast-forward to the first tick at or after repair completion: the
      // next processed index j satisfies (j + 1) * dt >= resume.
      i = static_cast<std::size_t>(std::ceil(resume / dt)) - 2;
    }
  }

  append_storm_events(config, storm_rng, events);

  return FaultTrace(config.node_count, config.duration_days,
                    std::move(events));
}

PhysicsTraceConfig physics_trace_defaults() { return PhysicsTraceConfig{}; }

PhysicsTraceConfig storm_trace_defaults() {
  PhysicsTraceConfig c;
  // Storms take over part of the correlated tail, so the degradation side
  // is softened (slower aging, fewer transient probes) to keep the
  // aggregate statistics on the paper's targets.
  c.aging_db_per_day = 0.078;
  c.transient_prob = 0.5;
  c.storm.rate_per_day = 0.025;
  c.storm.crew_work_mu = -1.0;
  return c;
}

const char* trace_model_name(TraceModel model) {
  switch (model) {
    case TraceModel::kPoisson:
      return "poisson";
    case TraceModel::kPhysics:
      return "physics";
    case TraceModel::kStorm:
      return "storm";
  }
  return "poisson";
}

}  // namespace ihbd::fault
