#include "src/core/cluster.h"

#include <algorithm>

#include "src/common/contracts.h"
#include "src/common/error.h"

namespace ihbd::core {

using ocstrx::OcsPath;

InfiniteHbdCluster::InfiniteHbdCluster(const Config& config)
    : config_(config),
      topo_(config.node_count, config.gpus_per_node, config.k, config.ring),
      faulty_(config.node_count),
      rng_(config.seed) {
  // Wiring convention (see bundle_for_hop): externals need
  // ceil(2K / 2) = K bundles, plus we keep the remaining GPU-pair bundles
  // (up to R) for loopback/DAC use per Fig. 5.
  const int needed_bundles = std::max(2, config.k);
  if (needed_bundles > config.gpus_per_node)
    throw ConfigError("K too large for the node's bundle count (K <= R)");
  fabrics_.reserve(static_cast<std::size_t>(config.node_count));
  for (int n = 0; n < config.node_count; ++n) {
    fabrics_.emplace_back(config.gpus_per_node, config.gpus_per_node,
                          config.trx_per_bundle, config.trx);
  }
}

std::pair<int, OcsPath> InfiniteHbdCluster::bundle_for_hop(
    int signed_hop) const {
  const int h = std::abs(signed_hop);
  IHBD_EXPECTS(h >= 1 && h <= config_.k);
  // bundle 0: forward (+1 primary / +2 backup); bundle 1: backward
  // (-1 / -2); bundle 2 (K=3): +3 primary / -3 backup.
  if (h <= 2) {
    const int bundle = signed_hop > 0 ? 0 : 1;
    return {bundle, h == 1 ? OcsPath::kExternal1 : OcsPath::kExternal2};
  }
  return {2, signed_hop > 0 ? OcsPath::kExternal1 : OcsPath::kExternal2};
}

void InfiniteHbdCluster::fail_node(int node) {
  IHBD_EXPECTS(node >= 0 && node < config_.node_count);
  faulty_.set(node, true);
  for (int b = 0; b < fabrics_[static_cast<std::size_t>(node)].bundle_count();
       ++b)
    fabrics_[static_cast<std::size_t>(node)].bundle(b).fail();
}

void InfiniteHbdCluster::repair_node(int node) {
  IHBD_EXPECTS(node >= 0 && node < config_.node_count);
  faulty_.set(node, false);
  for (int b = 0; b < fabrics_[static_cast<std::size_t>(node)].bundle_count();
       ++b)
    fabrics_[static_cast<std::size_t>(node)].bundle(b).repair();
}

bool InfiniteHbdCluster::node_faulty(int node) const {
  IHBD_EXPECTS(node >= 0 && node < config_.node_count);
  return faulty_.test(node);
}

void InfiniteHbdCluster::steer_group_links(const topo::TpGroup& group,
                                           RingPlan& plan) {
  const int m = static_cast<int>(group.nodes.size());
  const int n = config_.node_count;
  auto steer = [&](int node, int bundle, OcsPath path) {
    auto latency = fabrics_[static_cast<std::size_t>(node)].bundle(bundle).steer(
        path, rng_, /*preloaded=*/true);
    IHBD_ENSURES(latency.has_value());
    plan.reconfig_latency_s = std::max(plan.reconfig_latency_s, *latency);
    ++plan.reconfigured_bundles;
  };

  for (int i = 0; i + 1 < m; ++i) {
    const int u = group.nodes[static_cast<std::size_t>(i)];
    const int v = group.nodes[static_cast<std::size_t>(i + 1)];
    int hop = v - u;
    if (config_.ring) {
      hop = ((hop % n) + n) % n;  // forward distance on the ring
    }
    IHBD_EXPECTS(hop >= 1 && hop <= config_.k);
    const auto [fwd_bundle, fwd_path] = bundle_for_hop(+hop);
    const auto [bwd_bundle, bwd_path] = bundle_for_hop(-hop);
    steer(u, fwd_bundle, fwd_path);
    steer(v, bwd_bundle, bwd_path);
    plan.links.push_back(LinkAssignment{u, v, hop, fwd_bundle, fwd_path});
  }

  // Close the GPU-level ring: the first node loops back its backward
  // bundle, the last node its forward bundle (Fig. 2's OCSTrx1(N1) /
  // OCSTrx2(N3) loopbacks).
  const int first = group.nodes.front();
  const int last = group.nodes.back();
  steer(first, bundle_for_hop(-1).first, OcsPath::kLoopback);
  steer(last, bundle_for_hop(+1).first, OcsPath::kLoopback);
}

RingPlan InfiniteHbdCluster::build_rings(int tp_size_gpus) {
  RingPlan plan;
  plan.allocation = topo_.allocate(faulty_, tp_size_gpus);

  // Park every healthy node's bundles in loopback first (§4.2: idle OCSTrx
  // operate in loopback mode), then activate the plan's links.
  for (int node = 0; node < config_.node_count; ++node) {
    if (!faulty_.test(node))
      fabrics_[static_cast<std::size_t>(node)].park_all_loopback(rng_);
  }
  for (const auto& group : plan.allocation.groups)
    steer_group_links(group, plan);

  plan_ = plan;
  return plan;
}

BypassResult InfiniteHbdCluster::fail_and_bypass(int node) {
  IHBD_EXPECTS(node >= 0 && node < config_.node_count);
  BypassResult result;
  fail_node(node);

  // Locate the node inside the active plan.
  for (std::size_t g = 0; g < plan_.allocation.groups.size(); ++g) {
    auto& nodes = plan_.allocation.groups[g].nodes;
    auto it = std::find(nodes.begin(), nodes.end(), node);
    if (it == nodes.end()) continue;
    result.ring_was_member = true;
    result.degraded_group = static_cast<int>(g);
    const auto idx = static_cast<std::size_t>(it - nodes.begin());

    auto steer = [&](int nd, int bundle, OcsPath path) {
      auto latency =
          fabrics_[static_cast<std::size_t>(nd)].bundle(bundle).steer(
              path, rng_, /*preloaded=*/true);
      if (latency)
        result.reconfig_latency_s =
            std::max(result.reconfig_latency_s, *latency);
    };

    if (idx == 0 || idx + 1 == nodes.size()) {
      // End node: the adjacent member becomes the new segment end and
      // closes the GPU ring with its loopback path.
      if (nodes.size() >= 2) {
        const int neighbor = idx == 0 ? nodes[1] : nodes[nodes.size() - 2];
        const int bundle = idx == 0 ? bundle_for_hop(-1).first
                                    : bundle_for_hop(+1).first;
        steer(neighbor, bundle, OcsPath::kLoopback);
        result.bypassed = true;
      }
    } else {
      const int u = nodes[idx - 1];
      const int w = nodes[idx + 1];
      const int n = config_.node_count;
      int hop = w - u;
      if (config_.ring) hop = ((hop % n) + n) % n;
      if (hop <= config_.k) {
        const auto [fb, fp] = bundle_for_hop(+hop);
        const auto [bb, bp] = bundle_for_hop(-hop);
        steer(u, fb, fp);
        steer(w, bb, bp);
        result.bypassed = true;
      }
    }
    nodes.erase(it);
    break;
  }
  return result;
}

double InfiniteHbdCluster::hbd_bandwidth_per_gpu_gbps(int node) const {
  IHBD_EXPECTS(node >= 0 && node < config_.node_count);
  return fabrics_[static_cast<std::size_t>(node)].external_bandwidth_gbps() /
         config_.gpus_per_node;
}

ocstrx::NodeFabricManager& InfiniteHbdCluster::fabric(int node) {
  IHBD_EXPECTS(node >= 0 && node < config_.node_count);
  return fabrics_[static_cast<std::size_t>(node)];
}

const ocstrx::NodeFabricManager& InfiniteHbdCluster::fabric(int node) const {
  IHBD_EXPECTS(node >= 0 && node < config_.node_count);
  return fabrics_[static_cast<std::size_t>(node)];
}

}  // namespace ihbd::core
