#include "src/orch/incremental.h"

#include <algorithm>

#include "src/common/contracts.h"
#include "src/common/error.h"

namespace ihbd::orch {
namespace {

bool same_group(const dcn::PlacedGroup& a, const dcn::PlacedGroup& b) {
  return a.subline == b.subline && a.domain == b.domain && a.pos == b.pos &&
         a.group.nodes == b.group.nodes;
}

}  // namespace

IncrementalPlacement::IncrementalPlacement(const FatTreeOrchestrator& orch,
                                           const JobSpec& job,
                                           int n_constraints,
                                           const fault::PackedMask& faulty)
    : orch_(orch) {
  const dcn::FatTree& ft = orch.fat_tree();
  if (faulty.size() != ft.node_count())
    throw ConfigError("fault mask size != node count");
  if (job.tp_size_gpus <= 0 ||
      job.tp_size_gpus % orch.gpus_per_node() != 0)
    throw ConfigError("TP size must be a positive multiple of GPUs/node");
  if (n_constraints < 0 || n_constraints > orch.max_constraints())
    throw ConfigError("n_constraints out of [0, max_constraints()]");

  m_ = job.tp_size_gpus / orch.gpus_per_node();
  gpus_per_node_ = orch.gpus_per_node();
  chunk_len_ = orch.subline_chunk_len();
  const int n_maxsubline = ft.node_count() / chunk_len_;
  n_align_ = std::max(0, n_constraints - n_maxsubline);
  n_subline_ = std::min(n_maxsubline, n_constraints);
  // n_constraints == 0 is place()'s fully relaxed floor: the whole deploy
  // line is one unconstrained carve, which we model as an all-residual
  // placement with zero whole chunks.
  chunk_count_ = n_constraints == 0 ? 0 : n_maxsubline;

  faulty_ = faulty;
  const int p = ft.nodes_per_tor();
  tor_faults_.assign(static_cast<std::size_t>((ft.node_count() + p - 1) / p),
                     0);
  fault::for_each_set_bit(faulty_, [&](int n) {
    ++tor_faults_[static_cast<std::size_t>(n / p)];
  });
  expanded_ = fault::PackedMask(ft.node_count());
  for (int n = 0; n < ft.node_count(); ++n) expanded_.set(n, expanded_bit(n));

  chunks_.resize(static_cast<std::size_t>(chunk_count_) + 1);
  for (int q = 0; q <= chunk_count_; ++q) {
    carve_chunk(q, chunks_[static_cast<std::size_t>(q)]);
    group_count_ +=
        static_cast<int>(chunks_[static_cast<std::size_t>(q)].aligned.size() +
                         chunks_[static_cast<std::size_t>(q)].misaligned.size());
  }
}

int IncrementalPlacement::deploy_pos(int node) const {
  const dcn::FatTree& ft = orch_.fat_tree();
  const int p = ft.nodes_per_tor();
  const int subline_len = ft.node_count() / p;
  return (node % p) * subline_len + node / p;
}

bool IncrementalPlacement::expanded_bit(int node) const {
  if (faulty_.test(node)) return true;
  const dcn::FatTree& ft = orch_.fat_tree();
  if (ft.domain_of(node) >= n_align_) return false;
  const int p = ft.nodes_per_tor();
  return tor_faults_[static_cast<std::size_t>(node / p)] > 0;
}

void IncrementalPlacement::carve_chunk(int q, ChunkCarve& out) const {
  const std::vector<int>& deploy = orch_.deployment();
  const int k = orch_.k();
  if (q == chunk_count_) {
    // Residual tail beyond the last whole chunk (the whole deploy line when
    // n_constraints == 0): unconstrained Algorithm 2, plain groups.
    std::vector<int> residual(
        deploy.begin() + static_cast<std::ptrdiff_t>(chunk_count_) * chunk_len_,
        deploy.end());
    for (auto& group : orchestrate_dcn_free(residual, k, expanded_, m_)) {
      dcn::PlacedGroup pg;
      pg.group = std::move(group);
      out.misaligned.push_back(std::move(pg));
    }
    return;
  }

  std::vector<int> chunk(
      deploy.begin() + static_cast<std::ptrdiff_t>(q) * chunk_len_,
      deploy.begin() + static_cast<std::ptrdiff_t>(q + 1) * chunk_len_);
  const int n_domain = orch_.fat_tree().domain_count();
  const int subline = q / n_domain;
  const int domain = q % n_domain;
  if (q < n_subline_) {
    auto carved = orchestrate_chunk_aligned(chunk, k, expanded_, m_);
    for (std::size_t g = 0; g < carved.groups.size(); ++g) {
      dcn::PlacedGroup pg;
      pg.group = std::move(carved.groups[g]);
      if (carved.aligned_pos[g] >= 0) {
        pg.subline = subline;
        pg.domain = domain;
        pg.pos = carved.aligned_pos[g];
        out.aligned.push_back(std::move(pg));
      } else if (domain >= n_align_) {
        out.misaligned.push_back(std::move(pg));
      }
    }
  } else {
    for (auto& group : orchestrate_dcn_free(chunk, k, expanded_, m_)) {
      dcn::PlacedGroup pg;
      pg.group = std::move(group);
      pg.subline = subline;
      pg.domain = domain;
      out.misaligned.push_back(std::move(pg));
    }
  }
}

PlacementDelta IncrementalPlacement::set_faulty(int node, bool faulty) {
  const dcn::FatTree& ft = orch_.fat_tree();
  IHBD_EXPECTS(node >= 0 && node < ft.node_count());
  PlacementDelta delta;
  if (faulty_.test(node) == faulty) return delta;
  faulty_.set(node, faulty);
  const int p = ft.nodes_per_tor();
  const int tor = node / p;
  tor_faults_[static_cast<std::size_t>(tor)] += faulty ? 1 : -1;

  // Nodes whose expanded bit may have changed: the node itself, or — in an
  // alignment-constrained domain — its whole ToR (the expansion set).
  const bool tor_expanded = ft.domain_of(node) < n_align_;
  const int first = tor_expanded ? tor * p : node;
  const int last = tor_expanded ? tor * p + p : node + 1;

  std::vector<int> dirty;  // chunk indices needing a re-carve
  for (int n = first; n < last; ++n) {
    const bool bit = expanded_bit(n);
    if (expanded_.test(n) == bit) continue;
    expanded_.set(n, bit);
    const int pos = deploy_pos(n);
    dirty.push_back(pos < chunk_count_ * chunk_len_ ? pos / chunk_len_
                                                    : chunk_count_);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  for (int q : dirty) {
    ChunkCarve& old = chunks_[static_cast<std::size_t>(q)];
    ChunkCarve fresh;
    carve_chunk(q, fresh);

    // Report only true churn: a group present (identically) on both sides
    // of the re-carve survived the fault and is dropped from the delta.
    auto diff = [&](std::vector<dcn::PlacedGroup>& before,
                    std::vector<dcn::PlacedGroup>& after) {
      std::vector<bool> matched(after.size(), false);
      for (auto& og : before) {
        bool found = false;
        for (std::size_t j = 0; j < after.size(); ++j) {
          if (matched[j] || !same_group(og, after[j])) continue;
          matched[j] = true;
          found = true;
          break;
        }
        if (!found) delta.removed.push_back(og);
      }
      for (std::size_t j = 0; j < after.size(); ++j)
        if (!matched[j]) delta.added.push_back(after[j]);
    };
    diff(old.aligned, fresh.aligned);
    diff(old.misaligned, fresh.misaligned);

    group_count_ +=
        static_cast<int>(fresh.aligned.size() + fresh.misaligned.size()) -
        static_cast<int>(old.aligned.size() + old.misaligned.size());
    old = std::move(fresh);
  }
  return delta;
}

dcn::PlacementScheme IncrementalPlacement::placement() const {
  dcn::PlacementScheme out;
  out.groups.reserve(static_cast<std::size_t>(group_count_));
  for (int q = 0; q < chunk_count_; ++q)
    for (const auto& g : chunks_[static_cast<std::size_t>(q)].aligned)
      out.groups.push_back(g);
  for (int q = 0; q < chunk_count_; ++q)
    for (const auto& g : chunks_[static_cast<std::size_t>(q)].misaligned)
      out.groups.push_back(g);
  for (const auto& g : chunks_[static_cast<std::size_t>(chunk_count_)].misaligned)
    out.groups.push_back(g);
  return out;
}

}  // namespace ihbd::orch
