#include "src/ocstrx/fabric_manager.h"

#include <algorithm>
#include <string>

#include "src/common/contracts.h"
#include "src/common/error.h"

namespace ihbd::ocstrx {

NodeFabricManager::NodeFabricManager(int gpus, int bundles,
                                     int trx_per_bundle,
                                     std::shared_ptr<const TrxModel> trx_model)
    : gpus_(gpus) {
  if (gpus < 2) throw ConfigError("node needs at least 2 GPUs");
  if (bundles < 1 || bundles > gpus)
    throw ConfigError("bundle count must be in [1, gpus]");
  if (trx_per_bundle < 1) throw ConfigError("trx_per_bundle must be >= 1");
  bundles_.reserve(static_cast<std::size_t>(bundles));
  for (int b = 0; b < bundles; ++b) {
    bundles_.emplace_back(static_cast<std::uint32_t>(b), b, (b + 1) % gpus,
                          trx_per_bundle, trx_model);
  }
}

NodeFabricManager::NodeFabricManager(int gpus, int bundles,
                                     int trx_per_bundle,
                                     const TrxConfig& trx_config)
    : NodeFabricManager(gpus, bundles, trx_per_bundle,
                        std::make_shared<const TrxModel>(trx_config)) {}

void NodeFabricManager::preload_session(SessionId id,
                                        const Session& session) {
  for (const auto& entry : session) {
    if (entry.first >= bundles_.size())
      throw ConfigError("session '" + session_name(id) + "' names bundle " +
                        std::to_string(entry.first) + " but the node has " +
                        std::to_string(bundles_.size()) + " bundles");
  }
  const std::size_t row = row_of(id);
  if (session_paths_.size() < row + bundles_.size())
    session_paths_.resize(row + bundles_.size(), kNotLoaded);
  std::fill_n(session_paths_.begin() + static_cast<std::ptrdiff_t>(row),
              bundles_.size(), kKeep);
  for (const auto& [bundle_id, path] : session)
    session_paths_[row + bundle_id] = static_cast<std::int8_t>(path);
}

std::optional<double> NodeFabricManager::apply_session(SessionId id,
                                                       Rng& rng) {
  if (!has_session(id)) return std::nullopt;
  const std::int8_t* paths = session_paths_.data() + row_of(id);
  double worst = 0.0;
  for (std::size_t b = 0; b < bundles_.size(); ++b) {
    if (paths[b] == kKeep) continue;
    const auto latency = bundles_[b].steer(static_cast<OcsPath>(paths[b]),
                                           rng, /*preloaded=*/true);
    if (!latency) return std::nullopt;
    worst = std::max(worst, *latency);
  }
  return worst;
}

std::optional<double> NodeFabricManager::apply_adhoc(const Session& session,
                                                     Rng& rng) {
  double worst = 0.0;
  for (const auto& [bundle_id, path] : session) {
    if (bundle_id >= bundles_.size()) return std::nullopt;
    const auto latency =
        bundles_[bundle_id].steer(path, rng, /*preloaded=*/false);
    if (!latency) return std::nullopt;
    worst = std::max(worst, *latency);
  }
  return worst;
}

void NodeFabricManager::park_all_loopback(Rng& rng) {
  for (auto& b : bundles_) {
    if (b.healthy()) b.steer(OcsPath::kLoopback, rng, /*preloaded=*/true);
  }
}

double NodeFabricManager::external_bandwidth_gbps() const {
  double total = 0.0;
  for (const auto& b : bundles_) {
    total += b.bandwidth_gbps(OcsPath::kExternal1) +
             b.bandwidth_gbps(OcsPath::kExternal2);
  }
  return total;
}

bool NodeFabricManager::healthy() const {
  return std::all_of(bundles_.begin(), bundles_.end(),
                     [](const Bundle& b) { return b.healthy(); });
}

}  // namespace ihbd::ocstrx
