#include "src/ocstrx/fleet.h"

#include <algorithm>
#include <limits>
#include <string>

#include "src/common/contracts.h"
#include "src/common/error.h"

namespace ihbd::ocstrx {

Fleet::Fleet(int nodes, int gpus, int bundles, int trx_per_bundle,
             std::shared_ptr<const TrxModel> trx_model)
    : nodes_(nodes),
      bundles_(bundles),
      trx_per_bundle_(trx_per_bundle),
      model_(std::move(trx_model)) {
  if (nodes < 0) throw ConfigError("fleet node count must be >= 0");
  if (gpus < 2) throw ConfigError("node needs at least 2 GPUs");
  if (bundles < 1 || bundles > gpus)
    throw ConfigError("bundle count must be in [1, gpus]");
  if (trx_per_bundle < 1 ||
      trx_per_bundle > std::numeric_limits<std::uint8_t>::max())
    throw ConfigError("trx_per_bundle must be in [1, 255]");
  IHBD_EXPECTS(model_ != nullptr);
  const auto bundle_cells =
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(bundles);
  failed_.assign(bundle_cells, 0);
  active_.assign(bundle_cells * static_cast<std::size_t>(trx_per_bundle),
                 kNoPath);
}

void Fleet::preload_session(SessionId id, const Session& session) {
  const auto bundles = static_cast<std::size_t>(bundles_);
  for (const auto& entry : session) {
    if (entry.first >= bundles)
      throw ConfigError("session '" + session_name(id) + "' names bundle " +
                        std::to_string(entry.first) + " but the node has " +
                        std::to_string(bundles) + " bundles");
  }
  const std::size_t row = row_of(id);
  if (session_paths_.size() < row + bundles)
    session_paths_.resize(row + bundles, kNotLoaded);
  std::fill_n(session_paths_.begin() + static_cast<std::ptrdiff_t>(row),
              bundles, kKeep);
  for (const auto& [bundle_id, path] : session)
    session_paths_[row + bundle_id] = static_cast<std::int8_t>(path);
}

void Fleet::fail_node(int node) {
  const std::size_t first = first_bundle(node);
  const auto members = static_cast<std::size_t>(trx_per_bundle_);
  std::fill_n(failed_.begin() + static_cast<std::ptrdiff_t>(first), bundles_,
              static_cast<std::uint8_t>(trx_per_bundle_));
  std::fill_n(active_.begin() + static_cast<std::ptrdiff_t>(first * members),
              static_cast<std::size_t>(bundles_) * members, kNoPath);
}

void Fleet::repair_node(int node) {
  const std::size_t first = first_bundle(node);
  std::fill_n(failed_.begin() + static_cast<std::ptrdiff_t>(first), bundles_,
              std::uint8_t{0});
}

}  // namespace ihbd::ocstrx
