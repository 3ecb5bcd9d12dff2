#include "src/ctrl/control_plane.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "src/common/contracts.h"
#include "src/common/error.h"
#include "src/common/serde.h"
#include "src/obs/metrics.h"

namespace ihbd::ctrl {
namespace {

constexpr double kSecondsPerDay = 86400.0;
constexpr const char* kHbdSession = "hbd";
constexpr const char* kParkSession = "park";

dcn::FatTree make_tree(const ControlPlaneConfig& cfg) {
  dcn::FatTreeConfig tree;
  tree.node_count = cfg.node_count;
  tree.nodes_per_tor = cfg.nodes_per_tor;
  tree.tors_per_domain = cfg.tors_per_domain;
  return dcn::FatTree(tree);
}

/// `cfg`, once every field the plane's structures rely on has been checked.
const ControlPlaneConfig& checked(const ControlPlaneConfig& cfg) {
  const auto reject = [](const char* field, const char* rule) {
    throw ConfigError(std::string("ControlPlaneConfig.") + field + " " + rule);
  };
  if (cfg.gpus_per_node < 2) reject("gpus_per_node", "must be >= 2");
  if (cfg.bundles_per_node < 1 || cfg.bundles_per_node > cfg.gpus_per_node)
    reject("bundles_per_node", "must be in [1, gpus_per_node]");
  if (cfg.trx_per_bundle < 1 || cfg.trx_per_bundle > 255)
    reject("trx_per_bundle", "must be in [1, 255]");
  if (cfg.reconfig_batch == 0) reject("reconfig_batch", "must be >= 1");
  // A zero period would re-arm the drain at the same instant forever while
  // a request backs off.
  if (!(cfg.drain_period_days > 0.0) || !std::isfinite(cfg.drain_period_days))
    reject("drain_period_days", "must be finite and > 0");
  if (!(cfg.inject.session_failure_rate >= 0.0 &&
        cfg.inject.session_failure_rate <= 1.0))
    reject("inject.session_failure_rate", "must be in [0, 1]");
  if (cfg.retry.max_attempts < 1) reject("retry.max_attempts", "must be >= 1");
  return cfg;
}

}  // namespace

void ControlPlaneResult::merge(const ControlPlaneResult& other) {
  events += other.events;
  arrivals += other.arrivals;
  starts += other.starts;
  completions += other.completions;
  preemptions += other.preemptions;
  unfinished += other.unfinished;
  fault_transitions += other.fault_transitions;
  placement_churn += other.placement_churn;
  reconfig_enqueued += other.reconfig_enqueued;
  reconfig_coalesced += other.reconfig_coalesced;
  reconfig_drained += other.reconfig_drained;
  reconfig_failed += other.reconfig_failed;
  reconfig_retried += other.reconfig_retried;
  reconfig_dead_lettered += other.reconfig_dead_lettered;
  reconfig_injected += other.reconfig_injected;
  reconfig_pending_end += other.reconfig_pending_end;
  reconfig_batches += other.reconfig_batches;
  degraded_starts += other.degraded_starts;
  peak_pending_jobs = std::max(peak_pending_jobs, other.peak_pending_jobs);
  peak_reconfig_depth =
      std::max(peak_reconfig_depth, other.peak_reconfig_depth);
  job_wait_s.merge(other.job_wait_s);
  job_wait_degraded_s.merge(other.job_wait_degraded_s);
  reconfig_latency_s.merge(other.reconfig_latency_s);
  reconfig_latency_retried_s.merge(other.reconfig_latency_retried_s);
}

void ControlPlaneResult::save(serde::Writer& w) const {
  w.u64(events);
  w.u64(arrivals);
  w.u64(starts);
  w.u64(completions);
  w.u64(preemptions);
  w.u64(unfinished);
  w.u64(fault_transitions);
  w.u64(placement_churn);
  w.u64(reconfig_enqueued);
  w.u64(reconfig_coalesced);
  w.u64(reconfig_drained);
  w.u64(reconfig_failed);
  w.u64(reconfig_retried);
  w.u64(reconfig_dead_lettered);
  w.u64(reconfig_injected);
  w.u64(reconfig_pending_end);
  w.u64(reconfig_batches);
  w.u64(degraded_starts);
  w.u64(peak_pending_jobs);
  w.u64(peak_reconfig_depth);
  job_wait_s.save(w);
  job_wait_degraded_s.save(w);
  reconfig_latency_s.save(w);
  reconfig_latency_retried_s.save(w);
}

ControlPlaneResult ControlPlaneResult::load(serde::Reader& r) {
  ControlPlaneResult out;
  out.events = r.u64();
  out.arrivals = r.u64();
  out.starts = r.u64();
  out.completions = r.u64();
  out.preemptions = r.u64();
  out.unfinished = r.u64();
  out.fault_transitions = r.u64();
  out.placement_churn = r.u64();
  out.reconfig_enqueued = r.u64();
  out.reconfig_coalesced = r.u64();
  out.reconfig_drained = r.u64();
  out.reconfig_failed = r.u64();
  out.reconfig_retried = r.u64();
  out.reconfig_dead_lettered = r.u64();
  out.reconfig_injected = r.u64();
  out.reconfig_pending_end = r.u64();
  out.reconfig_batches = r.u64();
  out.degraded_starts = r.u64();
  out.peak_pending_jobs = r.u64();
  out.peak_reconfig_depth = r.u64();
  out.job_wait_s = SloHistogram::load(r);
  out.job_wait_degraded_s = SloHistogram::load(r);
  out.reconfig_latency_s = SloHistogram::load(r);
  out.reconfig_latency_retried_s = SloHistogram::load(r);
  return out;
}

ControlPlane::ControlPlane(const ControlPlaneConfig& cfg,
                           const fault::FaultTrace& trace,
                           std::vector<JobArrival> arrivals)
    : cfg_(checked(cfg)),
      trace_(trace),
      arrivals_(std::move(arrivals)),
      fat_tree_(make_tree(cfg)),
      orch_(fat_tree_, cfg.k, cfg.gpus_per_node),
      inc_(orch_,
           orch::JobSpec{arrivals_.empty() ? 32 : arrivals_[0].tp_size_gpus,
                         0},
           cfg.n_constraints < 0 ? orch_.max_constraints() : cfg.n_constraints,
           fault::PackedMask(cfg.node_count)),
      fleet_(cfg.node_count, cfg.gpus_per_node, cfg.bundles_per_node,
             cfg.trx_per_bundle,
             std::make_shared<const ocstrx::TrxModel>(ocstrx::TrxConfig{})),
      hbd_session_(ocstrx::intern_session(kHbdSession)),
      park_session_(ocstrx::intern_session(kParkSession)),
      rng_(cfg.seed) {
  if (trace.node_count() != cfg.node_count)
    throw ConfigError("trace/control-plane node count mismatch");
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    const JobArrival& a = arrivals_[i];
    if (a.tp_size_gpus != arrivals_[0].tp_size_gpus)
      throw ConfigError("mixed TP sizes in one control-plane fleet");
    if (a.groups < 1) throw ConfigError("job must request >= 1 TP group");
    if (a.id != static_cast<int>(i))
      throw ConfigError("JobArrival.id " + std::to_string(a.id) +
                        " at index " + std::to_string(i) +
                        ": ids must equal their index");
  }

  // The fast-switch sessions every node preloads: the HBD steering applied
  // when a node joins a job, and the idle loopback park (§4.2) applied on
  // release.
  ocstrx::Session hbd;
  ocstrx::Session park;
  for (int b = 0; b < cfg.bundles_per_node; ++b) {
    hbd[static_cast<std::uint32_t>(b)] = b % 2 == 0
                                             ? ocstrx::OcsPath::kExternal1
                                             : ocstrx::OcsPath::kExternal2;
    park[static_cast<std::uint32_t>(b)] = ocstrx::OcsPath::kLoopback;
  }
  fleet_.preload_session(hbd_session_, hbd);
  fleet_.preload_session(park_session_, park);
  queue_ = ocstrx::ReconfigQueue(cfg.reconfig_batch, cfg.retry, cfg.inject,
                                 static_cast<std::size_t>(cfg.node_count));
  group_at_first_.assign(static_cast<std::size_t>(cfg.node_count), -1);
  waiter_of_node_.assign(static_cast<std::size_t>(cfg.node_count), -1);

  // Seed the free pool from the healthy placement, in placement order
  // (aligned groups first — jobs consume alignment-preserving capacity
  // before the shifted spill-over).
  for (const auto& g : inc_.placement().groups) add_free_group(g.group.nodes);

  jobs_.resize(arrivals_.size());
}

void ControlPlane::link_back(GroupList& list, int group) {
  Group& g = groups_[static_cast<std::size_t>(group)];
  ++list.size;
  if (list.head < 0) {
    g.prev = g.next = list.head = group;
    return;
  }
  Group& first = groups_[static_cast<std::size_t>(list.head)];
  g.prev = first.prev;
  g.next = list.head;
  groups_[static_cast<std::size_t>(first.prev)].next = group;
  first.prev = group;
}

void ControlPlane::unlink(GroupList& list, int group) {
  Group& g = groups_[static_cast<std::size_t>(group)];
  --list.size;
  if (g.next == group) {
    list.head = -1;
  } else {
    groups_[static_cast<std::size_t>(g.prev)].next = g.next;
    groups_[static_cast<std::size_t>(g.next)].prev = g.prev;
    if (list.head == group) list.head = g.next;
  }
  g.prev = g.next = -1;
}

void ControlPlane::give_group(int job_id, int group) {
  groups_[static_cast<std::size_t>(group)].owner = job_id;
  link_back(jobs_[static_cast<std::size_t>(job_id)].groups, group);
}

void ControlPlane::add_free_group(const std::vector<int>& nodes) {
  int group;
  if (retired_groups_.empty()) {
    group = static_cast<int>(groups_.size());
    groups_.emplace_back();
  } else {
    group = retired_groups_.back();
    retired_groups_.pop_back();
  }
  groups_[static_cast<std::size_t>(group)].nodes.assign(nodes.begin(),
                                                        nodes.end());
  group_at_first_[static_cast<std::size_t>(nodes.front())] = group;
  link_back(free_, group);
}

int ControlPlane::take_free_group() {
  const int group = free_.head;
  if (group >= 0) unlink(free_, group);
  return group;
}

void ControlPlane::arm_drain() {
  if (drain_armed_) return;
  drain_armed_ = true;
  engine_.schedule_in(cfg_.drain_period_days,
                      [this](evsim::Engine&) { on_drain(); });
}

void ControlPlane::enqueue_reconfig(int node, ocstrx::SessionId session,
                                    int waiter_job) {
  queue_.enqueue(node, session, engine_.now());
  if (waiter_job >= 0) {
    waiter_of_node_[static_cast<std::size_t>(node)] = waiter_job;
    ++jobs_[static_cast<std::size_t>(waiter_job)].outstanding_reconfigs;
  }
  result_.peak_reconfig_depth =
      std::max(result_.peak_reconfig_depth,
               static_cast<std::uint64_t>(queue_.pending()));
  arm_drain();
}

void ControlPlane::on_drain() {
  static obs::Gauge& g_depth = obs::gauge("ctrl.reconfig_queue_depth");
  queue_.drain(fleet_, engine_.now(), rng_,
               [this](const ocstrx::ReconfigOutcome& oc) {
    if (oc.ok()) {
      const double latency_s =
          (oc.drained_at - oc.request.enqueued_at) * kSecondsPerDay +
          *oc.switch_latency_s;
      (oc.request.attempts > 1 ? result_.reconfig_latency_retried_s
                               : result_.reconfig_latency_s)
          .observe(latency_s);
    }
    // A retrying attempt has not resolved: its waiter keeps waiting (the
    // job stays on its last good placement) and the coalescing key stays
    // live inside the queue.
    if (oc.will_retry) return;
    int& waiter = waiter_of_node_[static_cast<std::size_t>(oc.request.node)];
    if (waiter >= 0) {
      const int job_id = waiter;
      Job& job = jobs_[static_cast<std::size_t>(job_id)];
      waiter = -1;
      // Giving up on a steer does not block the job: it starts anyway,
      // marked degraded so its wait lands in the degraded SLO split.
      if (!oc.ok()) job.degraded = true;
      if (--job.outstanding_reconfigs == 0 &&
          job.state == JobState::kStarting) {
        begin_running(job_id);
      }
    }
  });
  ++result_.reconfig_batches;
  g_depth.set(static_cast<double>(queue_.pending()));
  drain_armed_ = false;
  if (!queue_.empty()) arm_drain();
}

void ControlPlane::on_arrival(std::size_t index) {
  Job& job = jobs_[index];
  job.state = JobState::kPending;
  job.pending_since = engine_.now();
  pending_.push_back(static_cast<int>(index));  // ids equal indices
  ++result_.arrivals;
  result_.peak_pending_jobs = std::max(
      result_.peak_pending_jobs, static_cast<std::uint64_t>(pending_.size()));
  if (index + 1 < arrivals_.size()) {
    engine_.schedule_at(arrivals_[index + 1].day, [this, index](
                                                      evsim::Engine&) {
      on_arrival(index + 1);
    });
  }
  try_admit();
}

void ControlPlane::try_admit() {
  // FIFO head + bounded backfill: admit any of the first backfill_window
  // pending jobs whose group demand fits the free pool.
  std::size_t scanned = 0;
  for (auto it = pending_.begin();
       it != pending_.end() && scanned < cfg_.backfill_window &&
       free_.size > 0;
       ++scanned) {
    const int job_id = *it;
    Job& job = jobs_[static_cast<std::size_t>(job_id)];
    const auto needed = static_cast<std::size_t>(
        arrivals_[static_cast<std::size_t>(job_id)].groups);
    if (static_cast<std::size_t>(free_.size) < needed) {
      ++it;
      continue;
    }
    for (std::size_t n = 0; n < needed; ++n)
      give_group(job_id, take_free_group());
    job.state = JobState::kStarting;
    job.degraded = false;  // fresh start attempt, fresh SLO attribution
    start_pending_reconfigs(job_id);
    it = pending_.erase(it);
  }
}

void ControlPlane::start_pending_reconfigs(int job_id) {
  const Job& job = jobs_[static_cast<std::size_t>(job_id)];
  for (int g = job.groups.head, k = 0; k < job.groups.size;
       g = groups_[static_cast<std::size_t>(g)].next, ++k) {
    for (int n : groups_[static_cast<std::size_t>(g)].nodes)
      enqueue_reconfig(n, hbd_session_, job_id);
  }
  // Degenerate case (already-drained nodes coalesced away): start at once.
  if (job.outstanding_reconfigs == 0 && job.state == JobState::kStarting)
    begin_running(job_id);
}

void ControlPlane::begin_running(int job_id) {
  Job& job = jobs_[static_cast<std::size_t>(job_id)];
  job.state = JobState::kRunning;
  ++running_count_;
  ++result_.starts;
  const double wait_s = (engine_.now() - job.pending_since) * kSecondsPerDay;
  if (job.degraded) {
    ++result_.degraded_starts;
    result_.job_wait_degraded_s.observe(wait_s);
  } else {
    result_.job_wait_s.observe(wait_s);
  }
  job.completion = engine_.schedule_in(
      arrivals_[static_cast<std::size_t>(job_id)].run_days,
      [this, job_id](evsim::Engine&) {
        complete(job_id);
      });
}

void ControlPlane::complete(int job_id) {
  Job& job = jobs_[static_cast<std::size_t>(job_id)];
  job.state = JobState::kDone;
  job.completion = 0;
  --running_count_;
  ++result_.completions;
  release_groups(job_id, /*park=*/true);
  try_admit();
}

void ControlPlane::release_groups(int job_id, bool park) {
  Job& job = jobs_[static_cast<std::size_t>(job_id)];
  while (job.groups.head >= 0) {
    const int group = job.groups.head;
    unlink(job.groups, group);
    Group& g = groups_[static_cast<std::size_t>(group)];
    g.owner = -1;
    for (int n : g.nodes) {
      int& waiter = waiter_of_node_[static_cast<std::size_t>(n)];
      if (waiter == job_id) {
        waiter = -1;
        --job.outstanding_reconfigs;
      }
      if (park) enqueue_reconfig(n, park_session_, /*waiter_job=*/-1);
    }
    link_back(free_, group);
  }
  job.outstanding_reconfigs = 0;
}

void ControlPlane::preempt(int job_id) {
  Job& job = jobs_[static_cast<std::size_t>(job_id)];
  if (job.state == JobState::kRunning) {
    // The cancellable-completion contract in action: a preempted job's
    // departure event must never fire.
    const bool cancelled = engine_.cancel(job.completion);
    IHBD_EXPECTS(cancelled);
    job.completion = 0;
    --running_count_;
  }
  release_groups(job_id, /*park=*/false);
  job.state = JobState::kPending;
  job.pending_since = engine_.now();
  ++result_.preemptions;
  // Re-queue in arrival order (ids are arrival-ordered).
  const auto at =
      std::lower_bound(pending_.begin(), pending_.end(), job_id);
  pending_.insert(at, job_id);
  result_.peak_pending_jobs = std::max(
      result_.peak_pending_jobs, static_cast<std::uint64_t>(pending_.size()));
}

void ControlPlane::apply_delta(const orch::PlacementDelta& delta) {
  result_.placement_churn += delta.removed.size() + delta.added.size();
  // Jobs that lost at least one group, in loss order.
  std::vector<int> affected;
  for (const auto& g : delta.removed) {
    int& at_first = group_at_first_[static_cast<std::size_t>(
        g.group.nodes.front())];
    const int group = at_first;
    IHBD_EXPECTS(group >= 0);
    at_first = -1;
    retired_groups_.push_back(group);
    const int job_id = groups_[static_cast<std::size_t>(group)].owner;
    if (job_id < 0) {
      unlink(free_, group);
      continue;
    }
    groups_[static_cast<std::size_t>(group)].owner = -1;
    Job& job = jobs_[static_cast<std::size_t>(job_id)];
    unlink(job.groups, group);
    for (int n : g.group.nodes) {
      int& waiter = waiter_of_node_[static_cast<std::size_t>(n)];
      if (waiter == job_id) {
        waiter = -1;
        --job.outstanding_reconfigs;
      }
    }
    if (std::find(affected.begin(), affected.end(), job_id) ==
        affected.end()) {
      affected.push_back(job_id);
    }
  }
  for (const auto& g : delta.added) add_free_group(g.group.nodes);

  // Repair each affected job from the free pool; preempt when the pool
  // cannot restore its full group demand.
  for (const int job_id : affected) {
    Job& job = jobs_[static_cast<std::size_t>(job_id)];
    bool whole = true;
    const int demand = arrivals_[static_cast<std::size_t>(job_id)].groups;
    while (job.groups.size < demand) {
      const int group = take_free_group();
      if (group < 0) {
        whole = false;
        break;
      }
      // Replacement nodes must be steered before they carry traffic: a
      // starting job adds them to its wait set; a running job keeps
      // running on the rest while the new group steers in the background.
      const int waiter =
          job.state == JobState::kStarting ? job_id : -1;
      for (int n : groups_[static_cast<std::size_t>(group)].nodes)
        enqueue_reconfig(n, hbd_session_, waiter);
      give_group(job_id, group);
    }
    if (!whole) preempt(job_id);
  }
}

void ControlPlane::on_fault_day(std::size_t cursor) {
  const auto& timeline = *trace_.transition_timeline();
  const double day = timeline[cursor].day;
  std::size_t end = cursor;
  while (end < timeline.size() && timeline[end].day == day) ++end;
  for (std::size_t i = cursor; i < end; ++i) {
    const auto& tr = timeline[i];
    ++result_.fault_transitions;
    // Overlapping fault intervals: a node is down while its active-interval
    // count is positive (FaultTrace contract), so only 0<->1 edges are real
    // state changes.
    auto& depth = fault_depth_[static_cast<std::size_t>(tr.node)];
    const bool was_down = depth > 0;
    depth += tr.down ? 1 : -1;
    const bool now_down = depth > 0;
    if (was_down == now_down) continue;
    if (now_down) {
      fleet_.fail_node(tr.node);
    } else {
      fleet_.repair_node(tr.node);
    }
    apply_delta(inc_.set_faulty(tr.node, now_down));
  }
  try_admit();
  if (end < timeline.size()) {
    engine_.schedule_at(timeline[end].day, [this, end](evsim::Engine&) {
      on_fault_day(end);
    });
  }
}

ControlPlaneResult ControlPlane::run() {
  static obs::Gauge& g_pending = obs::gauge("ctrl.pending_jobs");
  static obs::Gauge& g_running = obs::gauge("ctrl.running_jobs");
  static obs::Gauge& g_free = obs::gauge("ctrl.free_groups");
  static obs::Histogram& h_latency =
      obs::histogram("ctrl.reconfig_latency_seconds");
  static obs::Histogram& h_wait = obs::histogram("ctrl.job_wait_seconds");
  fault_depth_.assign(static_cast<std::size_t>(cfg_.node_count), 0);

  if (!arrivals_.empty()) {
    engine_.schedule_at(arrivals_[0].day,
                        [this](evsim::Engine&) { on_arrival(0); });
  }
  const auto& timeline = *trace_.transition_timeline();
  if (!timeline.empty()) {
    engine_.schedule_at(timeline[0].day,
                        [this](evsim::Engine&) { on_fault_day(0); });
  }
  // Periodic health sampler: the always-on daemon's heartbeat, feeding the
  // live gauges (never read back into results — obs stays monitoring-only).
  engine_.schedule_every(0.25, 0.25, [&](evsim::Engine&) {
    g_pending.set(static_cast<double>(pending_.size()));
    g_running.set(static_cast<double>(running_count_));
    g_free.set(static_cast<double>(free_.size));
    if (health_probe) health_probe(*this, engine_.now());
  });

  engine_.run_until(trace_.duration_days());

  result_.events = engine_.executed();
  result_.unfinished =
      static_cast<std::uint64_t>(jobs_.size()) - result_.completions;
  result_.reconfig_enqueued = queue_.enqueued();
  result_.reconfig_coalesced = queue_.coalesced();
  result_.reconfig_drained = queue_.drained();
  result_.reconfig_failed = queue_.failed();
  result_.reconfig_retried = queue_.retried();
  result_.reconfig_dead_lettered = queue_.dead_lettered();
  result_.reconfig_injected = queue_.injected();
  result_.reconfig_pending_end =
      static_cast<std::uint64_t>(queue_.pending());

  if (obs::enabled()) {
    obs::counter("ctrl.events").add(result_.events);
    obs::counter("ctrl.job_arrivals").add(result_.arrivals);
    obs::counter("ctrl.job_starts").add(result_.starts);
    obs::counter("ctrl.job_completions").add(result_.completions);
    obs::counter("ctrl.preemptions").add(result_.preemptions);
    obs::counter("ctrl.fault_transitions").add(result_.fault_transitions);
    obs::counter("ctrl.placement_churn").add(result_.placement_churn);
    obs::counter("ctrl.reconfig_enqueued").add(result_.reconfig_enqueued);
    obs::counter("ctrl.reconfig_coalesced").add(result_.reconfig_coalesced);
    obs::counter("ctrl.reconfig_drained").add(result_.reconfig_drained);
    obs::counter("ctrl.reconfig_failed").add(result_.reconfig_failed);
    obs::counter("ctrl.reconfig_retried").add(result_.reconfig_retried);
    obs::counter("ctrl.reconfig_dead_lettered")
        .add(result_.reconfig_dead_lettered);
    obs::counter("ctrl.reconfig_injected").add(result_.reconfig_injected);
    obs::counter("ctrl.degraded_starts").add(result_.degraded_starts);
    // The run's SLO histograms, folded in once: the same counts a
    // per-observation mirror would have recorded.
    for (const SloHistogram* h :
         {&result_.reconfig_latency_s, &result_.reconfig_latency_retried_s})
      h_latency.add(h->buckets(), h->sum());
    for (const SloHistogram* h :
         {&result_.job_wait_s, &result_.job_wait_degraded_s})
      h_wait.add(h->buckets(), h->sum());
  }
  return result_;
}

ControlPlaneResult run_control_plane(const ControlPlaneConfig& cfg,
                                     const fault::FaultTrace& trace,
                                     std::vector<JobArrival> arrivals) {
  ControlPlane cp(cfg, trace, std::move(arrivals));
  return cp.run();
}

}  // namespace ihbd::ctrl
