#include "src/topo/waste.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "src/common/contracts.h"
#include "src/common/serde.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/topo/incremental.h"

namespace ihbd::topo {

namespace {

/// Replay metrics (src/obs): replays run, samples replayed, fault flips
/// applied and the word deltas the allocators consumed. Recording is
/// skipped unless obs is enabled and never touches replay results
/// (byte-identical output on vs off).
struct ReplayObs {
  obs::Counter& evaluations;    ///< evaluate_waste_over_trace calls
  obs::Counter& samples;        ///< samples replayed
  obs::Counter& flips_applied;  ///< net fault flips fed to allocators
  obs::Counter& dirty_words;    ///< word deltas applied after the first sample
};

ReplayObs& replay_obs() {
  static ReplayObs o{obs::counter("replay.evaluations"),
                     obs::counter("replay.samples"),
                     obs::counter("replay.flips_applied"),
                     obs::counter("alloc.dirty_words")};
  return o;
}

}  // namespace

TraceWasteResult evaluate_waste_over_trace(const HbdArchitecture& arch,
                                           const fault::FaultTrace& trace,
                                           int tp_size_gpus,
                                           const TraceReplayOptions& options) {
  IHBD_EXPECTS(trace.node_count() == arch.node_count());
  IHBD_EXPECTS(options.step_days > 0.0);
  IHBD_TRACE_SPAN("replay_trace");
  const bool obs_on = obs::enabled();
  std::uint64_t flips = 0;
  std::uint64_t dirty_words = 0;

  const std::vector<double> days = trace.sample_days(options.step_days);
  TraceWasteResult out;
  out.waste_ratio.t.reserve(days.size());
  out.waste_ratio.v.reserve(days.size());
  out.usable_gpus.t.reserve(days.size());
  out.usable_gpus.v.reserve(days.size());
  // The grid timeline holds at most one net group per sample day, stamped
  // with that day from the same sample_days(step), so group g applies at
  // sample k exactly when words.days[g] == days[k]. It is built once per
  // trace and step and shared by every grid cell replaying the trace.
  const auto timeline = trace.word_delta_timeline(options.step_days);
  const fault::WordDeltaTimeline& words = *timeline;
  fault::PackedMask mask(trace.node_count());
  std::size_t g = 0;
  const auto allocator = make_incremental_allocator(arch, tp_size_gpus);
  // A sample with no group cannot change the allocation, so the previous
  // aggregates are re-emitted without even the virtual call — identical
  // values either way.
  double waste = 0.0;
  double usable = 0.0;
  bool have_alloc = false;
  for (const double day : days) {
    std::span<const fault::WordDelta> deltas;
    if (g < words.days.size() && words.days[g] == day) {
      deltas = std::span(words.deltas).subspan(
          static_cast<std::size_t>(words.offsets[g]),
          static_cast<std::size_t>(words.offsets[g + 1] - words.offsets[g]));
      for (const fault::WordDelta& d : deltas)
        mask.apply_xor(d.word, d.xor_bits);
      ++g;
    }
    if (!have_alloc || !deltas.empty()) {
      if (obs_on) {
        for (const fault::WordDelta& d : deltas)
          flips += static_cast<std::uint64_t>(std::popcount(d.xor_bits));
        // The first apply seeds from the mask; later ones walk the deltas.
        if (have_alloc) dirty_words += deltas.size();
      }
      const Allocation& alloc = allocator->apply_words(mask, deltas);
      waste = alloc.waste_ratio();
      usable = static_cast<double>(alloc.usable_gpus);
      have_alloc = true;
    }
    out.waste_ratio.push(day, waste);
    out.usable_gpus.push(day, usable);
  }
  IHBD_ENSURES(g == words.days.size());
  out.waste_summary = out.waste_ratio.summarize_values();
  if (obs_on) {
    ReplayObs& o = replay_obs();
    o.evaluations.add(1);
    o.samples.add(days.size());
    o.flips_applied.add(flips);
    o.dirty_words.add(dirty_words);
  }
  return out;
}

void TraceWasteCodec::save(serde::Writer& w, const TraceWasteResult& r) const {
  serde::write_time_series(w, r.waste_ratio);
  serde::write_time_series(w, r.usable_gpus);
  serde::write_summary(w, r.waste_summary);
}

const TraceWasteCodec& trace_waste_codec() {
  static const TraceWasteCodec codec;
  return codec;
}

TraceWasteResult evaluate_waste_over_trace(const HbdArchitecture& arch,
                                           const fault::FaultTrace& trace,
                                           int tp_size_gpus,
                                           double step_days) {
  IHBD_EXPECTS(trace.node_count() == arch.node_count());
  IHBD_EXPECTS(step_days > 0.0);
  TraceWasteResult out;
  for (double day = 0.0; day < trace.duration_days(); day += step_days) {
    const Allocation alloc = arch.allocate(trace.faulty_at(day), tp_size_gpus);
    out.waste_ratio.push(day, alloc.waste_ratio());
    out.usable_gpus.push(day, static_cast<double>(alloc.usable_gpus));
  }
  out.waste_summary = out.waste_ratio.summarize_values();
  return out;
}

int max_job_scale(const TimeSeries& usable_gpus, double quantile,
                  int tp_size_gpus) {
  IHBD_EXPECTS(quantile >= 0.0 && quantile <= 1.0);
  IHBD_EXPECTS(tp_size_gpus > 0);
  if (usable_gpus.v.empty()) return 0;
  // The job size supportable `quantile` of the time is the
  // (1 - quantile)-percentile of the usable series. The series holds
  // integer GPU counts, but linear interpolation (and the (1 - quantile)
  // rank itself) carries FP noise, so a mathematically integral result can
  // land at 959.999... — truncating that floors away an entire TP group.
  // Round within an epsilon before flooring.
  const double val =
      percentile(usable_gpus.v, (1.0 - quantile) * 100.0);
  const int gpus = static_cast<int>(std::floor(val + 1e-9));
  return (gpus / tp_size_gpus) * tp_size_gpus;
}

double fault_waiting_rate(const TimeSeries& usable_gpus,
                          double job_scale_gpus) {
  if (usable_gpus.v.empty()) return 0.0;
  std::size_t waiting = 0;
  for (double u : usable_gpus.v)
    if (u < job_scale_gpus) ++waiting;
  return static_cast<double>(waiting) /
         static_cast<double>(usable_gpus.v.size());
}

}  // namespace ihbd::topo
