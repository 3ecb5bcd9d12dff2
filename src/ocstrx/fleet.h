// One control plane's OCS actuator state in flat arrays.
//
// The node fabric manager of §5.2 / Appendix G.1 only has to remember, per
// node, which path each OCSTrx is on, which bundles are up, and which
// preloaded session to apply. A Fleet keeps exactly that for every node of
// a plane in three contiguous arrays:
//
//   * a failed-member count per bundle (node-major),
//   * the active path of every transceiver, as an int8 (node-major, then
//     bundle, then member), kNoPath while dark,
//   * ONE session table for the whole fleet, a row of per-bundle cells per
//     SessionId: every node of a plane preloads the same sessions.
//
// The Transceiver / Bundle / NodeFabricManager object model stays the
// per-module physics model and this class's oracle: apply_session() walks
// bundles and members in the same order and draws a switch latency from
// the same TrxModel exactly when NodeFabricManager::apply_session would,
// so both consume an Rng identically and return identical latencies.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/contracts.h"
#include "src/common/rng.h"
#include "src/ocstrx/session.h"
#include "src/ocstrx/transceiver.h"

namespace ihbd::ocstrx {

class Fleet {
 public:
  /// `nodes` nodes, each with `gpus` GPUs and `bundles` bundles of
  /// `trx_per_bundle` transceivers sharing `trx_model`. Shape errors throw
  /// ConfigError as NodeFabricManager's constructor does.
  Fleet(int nodes, int gpus, int bundles, int trx_per_bundle,
        std::shared_ptr<const TrxModel> trx_model);

  /// Preload `session` on every node under `id`, overwriting any session
  /// preloaded under the same id. Throws ConfigError if the session names a
  /// bundle id >= the node's bundle count.
  void preload_session(SessionId id, const Session& session);
  /// True iff `node` is in the fleet and `id` is preloaded.
  bool has_session(int node, SessionId id) const {
    const std::size_t row = row_of(id);
    return node >= 0 && node < nodes_ && row < session_paths_.size() &&
           session_paths_[row] != kNotLoaded;
  }

  /// NodeFabricManager::apply_session for `node`: steer the session's
  /// bundles in id order, stopping with nullopt at the first failed bundle;
  /// a member draws a latency only when its path changes. Returns the max
  /// member latency (hardware only: the session was preloaded), or nullopt
  /// if the session is unknown or a touched bundle has failed. Inline: the
  /// control plane applies one session per drained request.
  std::optional<double> apply_session(int node, SessionId id, Rng& rng) {
    if (!has_session(node, id)) return std::nullopt;
    const std::int8_t* paths = session_paths_.data() + row_of(id);
    const auto bundles = static_cast<std::size_t>(bundles_);
    const auto members = static_cast<std::size_t>(trx_per_bundle_);
    const std::size_t first = first_bundle(node);
    double worst = 0.0;
    for (std::size_t b = 0; b < bundles; ++b) {
      const std::int8_t path = paths[b];
      if (path == kKeep) continue;
      if (failed_[first + b] != 0) return std::nullopt;
      std::int8_t* trx = active_.data() + (first + b) * members;
      for (std::size_t t = 0; t < members; ++t) {
        if (trx[t] == path) continue;  // already there: switches for free
        worst =
            std::max(worst, model_->matrix.sample_reconfig_latency_s(rng));
        trx[t] = path;
      }
    }
    return worst;
  }

  /// Fail / repair every bundle of `node`. A failed member goes dark and
  /// stays dark through repair until a session steers it again.
  void fail_node(int node);
  void repair_node(int node);

 private:
  /// Session cells: an OcsPath value, or one of these markers.
  static constexpr std::int8_t kKeep = -1;       ///< bundle left untouched
  static constexpr std::int8_t kNotLoaded = -2;  ///< id not preloaded
  /// Transceiver cell of a dark member (idle or failed).
  static constexpr std::int8_t kNoPath = -1;

  std::size_t row_of(SessionId id) const {
    return static_cast<std::size_t>(id.index) *
           static_cast<std::size_t>(bundles_);
  }
  /// Index of `node`'s first bundle in failed_.
  std::size_t first_bundle(int node) const {
    IHBD_EXPECTS(node >= 0 && node < nodes_);
    return static_cast<std::size_t>(node) * static_cast<std::size_t>(bundles_);
  }

  int nodes_;
  int bundles_;
  int trx_per_bundle_;
  std::shared_ptr<const TrxModel> model_;
  std::vector<std::uint8_t> failed_;       ///< failed members per bundle
  std::vector<std::int8_t> active_;        ///< OcsPath per member, or kNoPath
  std::vector<std::int8_t> session_paths_;  ///< row-major by SessionId
};

}  // namespace ihbd::ocstrx
