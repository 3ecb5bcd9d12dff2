// Always-on orchestration control plane (the daemon the paper's §5
// deployment implies): an event-driven service on evsim::Engine that keeps
// a cluster's placement, job set, and OCS fabric consistent under a
// continuous stream of events, instead of re-running the offline
// orchestration pipeline per scenario.
//
// Event sources, all on one engine clock (time unit: DAYS):
//   * job arrivals/departures - a pre-generated deterministic workload
//     (src/ctrl/workload.h); completions are cancellable one-shot events
//     (preemption cancels them via evsim::Engine::cancel);
//   * fault/repair transitions - FaultTrace::transitions(), walked by a
//     cursor event chain; each transition patches the incremental
//     placement (src/orch/incremental.h) and fails/repairs the node's
//     OCS bundles;
//   * reconfiguration drains - a batched ReconfigQueue
//     (src/ocstrx/reconfig_queue.h) armed while non-empty, applying
//     preloaded sessions against the plane's flat ocstrx::Fleet.
//
// State model: the incremental placement partitions healthy capacity into
// TP groups; the control plane tracks each group as FREE or owned by a
// job. Admission is FIFO-with-backfill over pending jobs (any job whose
// group demand fits the free pool starts). A started job's nodes are
// steered via the reconfig queue; the job begins running only when its
// last reconfig drains, so job-wait SLOs include control-plane queueing. A
// fault that removes an owned group first tries a replacement group from
// the free pool; failing that the job is preempted - completion event
// cancelled, remaining groups released, job re-queued in arrival order.
//
// Determinism: all randomness (workload, switch-latency draws) comes from
// the caller's seeds; event ties resolve by the engine's FIFO order;
// SLO aggregates live in local SloHistograms so sweep results are
// byte-identical across thread counts and shard shapes. ctrl.* obs
// metrics report the same quantities for monitoring and are never read
// back into results: gauges are set live, while counters and the
// ctrl.reconfig_latency_seconds / ctrl.job_wait_seconds histograms are
// folded in once, at the end of run() (the histograms from the run's
// SloHistograms), so the request path pays no global atomic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/ctrl/slo.h"
#include "src/ctrl/workload.h"
#include "src/dcn/fattree.h"
#include "src/evsim/engine.h"
#include "src/fault/injection.h"
#include "src/fault/trace.h"
#include "src/ocstrx/fleet.h"
#include "src/ocstrx/reconfig_queue.h"
#include "src/orch/incremental.h"
#include "src/orch/orchestrator.h"

namespace ihbd::serde {
class Writer;
class Reader;
}  // namespace ihbd::serde

namespace ihbd::ctrl {

struct ControlPlaneConfig {
  // Fleet shape (fat-tree DCN under the InfiniteHBD ring).
  int node_count = 1024;
  int nodes_per_tor = 4;
  int tors_per_domain = 32;
  int k = 2;                ///< OCSTrx hop reach
  int gpus_per_node = 4;    ///< r
  /// Alignment constraints pinned for the daemon (-1: max_constraints()).
  int n_constraints = -1;

  // OCS fabric per node.
  int bundles_per_node = 2;  ///< in [1, gpus_per_node]
  int trx_per_bundle = 1;    ///< in [1, 255]

  // Reconfiguration batching.
  std::size_t reconfig_batch = 64;           ///< >= 1
  double drain_period_days = 1.0 / 86400.0;  ///< one drain tick per sim-second

  /// Retry/backoff for transiently failed reconfigurations (days).
  ocstrx::RetryPolicy retry;
  /// Deterministic session-switch fault injection (off by default).
  fault::InjectionPlan inject;

  /// Admission looks at most this many pending jobs per pass (FIFO head +
  /// bounded backfill), keeping event cost bounded under overload.
  std::size_t backfill_window = 64;

  std::uint64_t seed = 2025;  ///< switch-latency draws
};

/// Deterministic, mergeable outcome of one control-plane run (the sweep
/// accumulator unit for bench_ctrl_plane).
struct ControlPlaneResult {
  std::uint64_t events = 0;  ///< engine events executed
  std::uint64_t arrivals = 0;
  std::uint64_t starts = 0;
  std::uint64_t completions = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t unfinished = 0;  ///< pending or running at the horizon
  std::uint64_t fault_transitions = 0;
  std::uint64_t placement_churn = 0;  ///< groups removed+added by faults
  std::uint64_t reconfig_enqueued = 0;
  std::uint64_t reconfig_coalesced = 0;
  std::uint64_t reconfig_drained = 0;  ///< resolved (success/perm/dead)
  std::uint64_t reconfig_failed = 0;   ///< failed apply ATTEMPTS
  std::uint64_t reconfig_retried = 0;
  std::uint64_t reconfig_dead_lettered = 0;
  std::uint64_t reconfig_injected = 0;
  std::uint64_t reconfig_pending_end = 0;  ///< unresolved at the horizon
  std::uint64_t reconfig_batches = 0;
  std::uint64_t degraded_starts = 0;  ///< jobs started with a failed steer
  std::uint64_t peak_pending_jobs = 0;
  std::uint64_t peak_reconfig_depth = 0;

  SloHistogram job_wait_s;           ///< pending -> running, seconds
  SloHistogram job_wait_degraded_s;  ///< same, jobs that started degraded
  SloHistogram reconfig_latency_s;   ///< enqueue -> applied 1st try, seconds
  SloHistogram reconfig_latency_retried_s;  ///< applied after >= 1 retry

  /// Trial-order fold for sweeps (counter adds + histogram merges).
  void merge(const ControlPlaneResult& other);

  void save(serde::Writer& w) const;
  static ControlPlaneResult load(serde::Reader& r);
};

/// The daemon. Construct, then run() to the trace horizon. One-shot: a new
/// scenario takes a new instance (long-running *within* a run; the bench
/// restarts per trial).
class ControlPlane {
 public:
  /// Throws ConfigError naming the ControlPlaneConfig field when the config
  /// is malformed, or when `arrivals` do not fit the trace and the fleet
  /// (node count, one TP size, ids equal to their index).
  ControlPlane(const ControlPlaneConfig& cfg, const fault::FaultTrace& trace,
               std::vector<JobArrival> arrivals);

  /// Consume every event up to trace.duration_days() and return the run's
  /// aggregate result.
  ControlPlaneResult run();

  /// Live introspection (valid during/after run()).
  const evsim::Engine& engine() const { return engine_; }
  std::size_t pending_jobs() const { return pending_.size(); }
  std::size_t running_jobs() const { return running_count_; }
  int free_groups() const { return free_.size; }
  /// True while the node has >= 1 active fault interval (depth > 0) —
  /// the control plane's view of FaultTrace::faulty_at under overlapping
  /// intervals. Valid during/after run().
  bool node_faulty(int node) const {
    return node >= 0 && node < static_cast<int>(fault_depth_.size()) &&
           fault_depth_[static_cast<std::size_t>(node)] > 0;
  }

  /// Optional probe invoked by the periodic health sampler with
  /// (*this, now). Monitoring/test hook; must not mutate the plane.
  std::function<void(const ControlPlane&, double)> health_probe;

 private:
  enum class JobState : std::uint8_t { kPending, kStarting, kRunning, kDone };

  /// A circular list of groups_ indices, in the order they joined it.
  struct GroupList {
    int head = -1;  ///< -1: empty
    int size = 0;
  };

  /// A job's run state; its arrival is arrivals_[id] (jobs_ and arrivals_
  /// share the index). Every arrival gets one, so it stays small: the owned
  /// groups live in groups_, and the pending clock shares a word with the
  /// completion event because a job is never pending and running at once.
  struct Job {
    JobState state = JobState::kPending;
    /// A steer for this start attempt failed permanently or dead-lettered:
    /// the job runs on its last good placement (graceful degradation) and
    /// its wait lands in the degraded SLO split.
    bool degraded = false;
    int outstanding_reconfigs = 0;
    GroupList groups;  ///< owned groups
    union {
      double pending_since = 0.0;  ///< kPending/kStarting: arrival or last
                                   ///< preemption day
      evsim::EventId completion;   ///< kRunning: the departure event
    };
  };
  static_assert(sizeof(Job) == 24, "one Job per arrival: keep it small");

  /// A placement group and its links in one GroupList: the free pool or
  /// its owner's groups.
  struct Group {
    std::vector<int> nodes;
    int prev = -1;
    int next = -1;
    int owner = -1;  ///< owning job, -1 while free
  };

  void on_arrival(std::size_t index);
  void on_fault_day(std::size_t cursor);
  void on_drain();
  void try_admit();
  void start_pending_reconfigs(int job_id);
  void begin_running(int job_id);
  void complete(int job_id);
  void preempt(int job_id);
  void release_groups(int job_id, bool park);
  void apply_delta(const orch::PlacementDelta& delta);
  void add_free_group(const std::vector<int>& nodes);
  int take_free_group();  ///< -1 when the pool is empty
  void link_back(GroupList& list, int group);
  void unlink(GroupList& list, int group);
  void give_group(int job_id, int group);
  void arm_drain();
  void enqueue_reconfig(int node, ocstrx::SessionId session, int waiter_job);

  ControlPlaneConfig cfg_;
  const fault::FaultTrace& trace_;
  std::vector<JobArrival> arrivals_;

  dcn::FatTree fat_tree_;
  orch::FatTreeOrchestrator orch_;
  orch::IncrementalPlacement inc_;
  ocstrx::Fleet fleet_;
  ocstrx::ReconfigQueue queue_;
  ocstrx::SessionId hbd_session_;   ///< steer a node into its job's HBD
  ocstrx::SessionId park_session_;  ///< idle loopback park
  evsim::Engine engine_;
  Rng rng_;

  std::vector<Job> jobs_;          ///< indexed by arrival id
  std::deque<int> pending_;        ///< FIFO (arrival order maintained)
  std::size_t running_count_ = 0;

  /// Every live placement group, by index; retired indices are reused
  /// (their node buffers too).
  std::vector<Group> groups_;
  std::vector<int> retired_groups_;
  /// Group first node -> index in groups_, -1 none. A group's first node
  /// identifies it uniquely: placement groups are disjoint.
  std::vector<int> group_at_first_;
  /// Free pool: FIFO order (placement order at init, release/churn order
  /// after).
  GroupList free_;
  std::vector<int> waiter_of_node_;  ///< node -> starting job, -1 none
  std::vector<int> fault_depth_;  ///< active fault intervals per node

  bool drain_armed_ = false;
  ControlPlaneResult result_;
};

/// Convenience: build + run.
ControlPlaneResult run_control_plane(const ControlPlaneConfig& cfg,
                                     const fault::FaultTrace& trace,
                                     std::vector<JobArrival> arrivals);

}  // namespace ihbd::ctrl
