#include "src/orch/orchestrator.h"

#include <algorithm>
#include <optional>

#include "src/common/contracts.h"
#include "src/common/error.h"

namespace ihbd::orch {

std::vector<int> deployment_order(int node_count, int p) {
  IHBD_EXPECTS(node_count > 0 && p > 0);
  IHBD_EXPECTS(node_count % p == 0);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(node_count));
  const int subline_len = node_count / p;
  for (int i = 0; i < p; ++i)
    for (int j = 0; j < subline_len; ++j) order.push_back(i + j * p);
  return order;
}

std::vector<topo::TpGroup> orchestrate_dcn_free(
    const std::vector<int>& nodes_in_hbd_order, int k,
    const fault::PackedMask& faulty, int m) {
  IHBD_EXPECTS(k >= 1 && m >= 1);
  const int n = static_cast<int>(nodes_in_hbd_order.size());

  // Healthy positions in HBD order.
  std::vector<int> healthy_pos;
  for (int pos = 0; pos < n; ++pos)
    if (!faulty.test(nodes_in_hbd_order[static_cast<std::size_t>(pos)]))
      healthy_pos.push_back(pos);

  // Connected components of the healthy K-hop line: consecutive healthy
  // positions belong to one component iff their gap is <= k (edge exists).
  // This is the DFS of Algorithm 2 specialized to the K-hop structure,
  // already yielding components sorted in HBD order.
  std::vector<topo::TpGroup> groups;
  std::vector<int> component;
  auto flush = [&] {
    const int len = static_cast<int>(component.size());
    for (int g = 0; g + m <= len; g += m) {
      topo::TpGroup group;
      for (int i = 0; i < m; ++i) {
        group.nodes.push_back(nodes_in_hbd_order[static_cast<std::size_t>(
            component[static_cast<std::size_t>(g + i)])]);
      }
      groups.push_back(std::move(group));
    }
    component.clear();
  };
  for (std::size_t i = 0; i < healthy_pos.size(); ++i) {
    if (!component.empty() && healthy_pos[i] - component.back() > k) flush();
    component.push_back(healthy_pos[i]);
  }
  flush();
  return groups;
}

ChunkGroups orchestrate_chunk_aligned(const std::vector<int>& chunk, int k,
                                      const fault::PackedMask& faulty,
                                      int m) {
  IHBD_EXPECTS(k >= 1 && m >= 1);
  const int l = static_cast<int>(chunk.size());
  ChunkGroups out;
  std::vector<bool> used(static_cast<std::size_t>(l), false);
  auto is_faulty = [&](int pos) {
    return faulty.test(chunk[static_cast<std::size_t>(pos)]);
  };

  // Pass 1: fault-free aligned windows [g*m, (g+1)*m).
  for (int g = 0; (g + 1) * m <= l; ++g) {
    bool clean = true;
    for (int i = g * m; i < (g + 1) * m; ++i)
      if (is_faulty(i)) clean = false;
    if (!clean) continue;
    topo::TpGroup group;
    for (int i = g * m; i < (g + 1) * m; ++i) {
      group.nodes.push_back(chunk[static_cast<std::size_t>(i)]);
      used[static_cast<std::size_t>(i)] = true;
    }
    out.groups.push_back(std::move(group));
    out.aligned_pos.push_back(g);
  }

  // Pass 2: tile the remaining healthy K-hop-connected runs (misaligned).
  std::vector<int> run;  // positions
  auto flush = [&] {
    for (int g = 0; (g + 1) * m <= static_cast<int>(run.size()); ++g) {
      topo::TpGroup group;
      for (int i = g * m; i < (g + 1) * m; ++i)
        group.nodes.push_back(
            chunk[static_cast<std::size_t>(run[static_cast<std::size_t>(i)])]);
      out.groups.push_back(std::move(group));
      out.aligned_pos.push_back(-1);
    }
    run.clear();
  };
  for (int pos = 0; pos < l; ++pos) {
    if (used[static_cast<std::size_t>(pos)] || is_faulty(pos)) {
      // A used (aligned) node terminates the run: rings cannot hop over
      // nodes already serving another group beyond the K reach.
      if (!run.empty() && used[static_cast<std::size_t>(pos)]) flush();
      // A faulty node is bypassable while the gap stays below K.
      if (!run.empty() && is_faulty(pos)) {
        int gap = 0;
        int q = pos;
        while (q < l && is_faulty(q)) {
          ++gap;
          ++q;
        }
        if (gap > k - 1) flush();
      }
      continue;
    }
    run.push_back(pos);
  }
  flush();
  return out;
}

FatTreeOrchestrator::FatTreeOrchestrator(const dcn::FatTree& fat_tree, int k,
                                         int gpus_per_node)
    : fat_tree_(fat_tree), k_(k), gpus_per_node_(gpus_per_node),
      chunk_len_(fat_tree.domain_size_nodes() / fat_tree.nodes_per_tor()),
      deploy_(deployment_order(fat_tree.node_count(),
                               fat_tree.nodes_per_tor())) {
  if (k < 1) throw ConfigError("K must be >= 1");
  if (gpus_per_node < 1) throw ConfigError("GPUs per node must be >= 1");
}

int FatTreeOrchestrator::max_constraints() const {
  const int n_maxsubline = fat_tree_.node_count() / chunk_len_;
  return fat_tree_.domain_count() + n_maxsubline;
}

dcn::PlacementScheme FatTreeOrchestrator::place(
    const fault::PackedMask& faulty, const JobSpec& job,
    int n_constraints) const {
  if (faulty.size() != fat_tree_.node_count())
    throw ConfigError("fault mask size != node count");
  if (job.tp_size_gpus <= 0 || job.tp_size_gpus % gpus_per_node_ != 0)
    throw ConfigError("TP size must be a positive multiple of GPUs/node");
  const int m = job.tp_size_gpus / gpus_per_node_;
  const int p = fat_tree_.nodes_per_tor();
  const int n_domain = fat_tree_.domain_count();
  const int n_maxsubline = fat_tree_.node_count() / chunk_len_;
  const int n_align = std::max(0, n_constraints - n_maxsubline);
  const int n_subline = std::min(n_maxsubline, n_constraints);

  // Alignment constraint: ToR-expand faults within the first n_align
  // domains (a faulty node marks its whole ToR faulty, so every sub-line
  // cuts identically and TP ranks stay matched within each ToR).
  fault::PackedMask expanded = faulty;
  for (int dom = 0; dom < n_align; ++dom) {
    const int base = dom * fat_tree_.domain_size_nodes();
    for (int node = base; node < base + fat_tree_.domain_size_nodes();
         ++node) {
      if (faulty.test(node)) {
        const int tor_base = (node / p) * p;
        for (int t = tor_base; t < tor_base + p; ++t) expanded.set(t, true);
      }
    }
  }

  dcn::PlacementScheme placement;

  // Fully relaxed floor: with zero constraints the whole deploy line is
  // orchestrated as one K-hop line (pure Algorithm 2) - the maximum-
  // capacity placement the binary search can always fall back to.
  if (n_constraints == 0) {
    for (auto& group : orchestrate_dcn_free(deploy_, k_, faulty, m)) {
      dcn::PlacedGroup pg;
      pg.group = std::move(group);
      placement.groups.push_back(std::move(pg));
    }
    return placement;
  }

  // Sub-line constraint: pop chunks of length l from S_deploy; chunk q
  // covers sub-line q / n_domain within domain q % n_domain; TP groups
  // carved inside a chunk never span aggregation domains.
  // Every chunk stays inside one aggregation domain (the cheap constraint).
  // The first n_subline chunks are carved ALIGNED (fault-free m-windows
  // first, leftovers recovered as misaligned groups); the rest are carved
  // with plain Orchestration-DCN-Free (bypass shifts, maximal capacity).
  // The binary search thus trades alignment for capacity chunk by chunk.
  std::vector<dcn::PlacedGroup> aligned_groups;
  std::vector<dcn::PlacedGroup> misaligned_groups;
  for (int q = 0; q < n_maxsubline; ++q) {
    std::vector<int> chunk(
        deploy_.begin() + static_cast<std::ptrdiff_t>(q) * chunk_len_,
        deploy_.begin() + static_cast<std::ptrdiff_t>(q + 1) * chunk_len_);
    const int subline = q / n_domain;
    const int domain = q % n_domain;
    if (q < n_subline) {
      auto carved = orchestrate_chunk_aligned(chunk, k_, expanded, m);
      for (std::size_t g = 0; g < carved.groups.size(); ++g) {
        dcn::PlacedGroup pg;
        pg.group = std::move(carved.groups[g]);
        if (carved.aligned_pos[g] >= 0) {
          pg.subline = subline;
          pg.domain = domain;
          pg.pos = carved.aligned_pos[g];
          aligned_groups.push_back(std::move(pg));
        } else if (domain >= n_align) {
          // In alignment-constrained domains the recovery pass is
          // disabled: expansion trades those nodes for rank alignment.
          misaligned_groups.push_back(std::move(pg));
        }
      }
    } else {
      for (auto& group : orchestrate_dcn_free(chunk, k_, expanded, m)) {
        dcn::PlacedGroup pg;
        pg.group = std::move(group);
        pg.subline = subline;
        pg.domain = domain;  // carved in-domain, but rank-shifted
        misaligned_groups.push_back(std::move(pg));
      }
    }
  }
  // Jobs consume aligned groups first (their DP/CP traffic stays
  // intra-ToR), then the shifted spill-over.
  for (auto& g : aligned_groups) placement.groups.push_back(std::move(g));
  for (auto& g : misaligned_groups) placement.groups.push_back(std::move(g));

  // Tail nodes beyond the last whole chunk (deploy order not divisible by
  // l) are orchestrated unconstrained.
  std::vector<int> residual(
      deploy_.begin() + static_cast<std::ptrdiff_t>(n_maxsubline) * chunk_len_,
      deploy_.end());
  for (auto& group : orchestrate_dcn_free(residual, k_, expanded, m)) {
    dcn::PlacedGroup pg;
    pg.group = std::move(group);
    placement.groups.push_back(std::move(pg));
  }
  return placement;
}

dcn::PlacementScheme FatTreeOrchestrator::orchestrate(
    const fault::PackedMask& faulty, const JobSpec& job) const {
  int low = 0;
  int high = max_constraints();
  std::optional<dcn::PlacementScheme> best;
  while (low <= high) {
    const int mid = (low + high) / 2;
    auto placement = place(faulty, job, mid);
    if (placement.gpu_count(gpus_per_node_) >= job.gpu_count) {
      best = std::move(placement);
      low = mid + 1;
    } else {
      high = mid - 1;
    }
  }
  if (!best)
    throw InfeasibleError("job does not fit the healthy cluster capacity");
  return *std::move(best);
}

dcn::PlacementScheme greedy_baseline(const dcn::FatTree& fat_tree, int k,
                                     int gpus_per_node,
                                     const fault::PackedMask& faulty,
                                     const JobSpec& job, Rng& rng) {
  if (faulty.size() != fat_tree.node_count())
    throw ConfigError("fault mask size != node count");
  const int m = job.tp_size_gpus / gpus_per_node;
  const auto deploy = deployment_order(fat_tree.node_count(),
                                       fat_tree.nodes_per_tor());

  // Randomly exclude surplus healthy nodes one at a time, keeping each
  // exclusion only if the placement stays feasible - the "first random
  // permutation that meets the requirements" of §6.4. The result is a
  // genuinely arbitrary feasible subset with no ToR-rank coordination.
  const int needed_groups =
      (job.gpu_count + job.tp_size_gpus - 1) / job.tp_size_gpus;
  fault::PackedMask excluded = faulty;
  std::vector<int> ids(static_cast<std::size_t>(fat_tree.node_count()));
  for (int i = 0; i < fat_tree.node_count(); ++i)
    ids[static_cast<std::size_t>(i)] = i;
  rng.shuffle(ids);
  auto groups = orchestrate_dcn_free(deploy, k, excluded, m);
  int spare_groups = static_cast<int>(groups.size()) - needed_groups;
  for (int id : ids) {
    if (spare_groups <= 0) break;
    if (excluded.test(id)) continue;
    excluded.set(id, true);
    auto candidate = orchestrate_dcn_free(deploy, k, excluded, m);
    const int candidate_spare =
        static_cast<int>(candidate.size()) - needed_groups;
    if (candidate_spare < 0) {
      excluded.set(id, false);  // would break the job
      continue;
    }
    groups = std::move(candidate);
    spare_groups = candidate_spare;
  }

  dcn::PlacementScheme placement;
  for (auto& group : groups) {
    dcn::PlacedGroup pg;
    pg.group = std::move(group);
    placement.groups.push_back(std::move(pg));
  }
  // Random DP ring order: the greedy does not coordinate group adjacency.
  rng.shuffle(placement.groups);
  return placement;
}

}  // namespace ihbd::orch
