// Node-level control plane (paper §5.2): the *node fabric manager*
// configures individual OCSTrx modules and handles topology switching.
//
// The fast-switch mechanism (Appendix G.1) preloads "Top-Session"
// configurations into the OCSTrx controller so that a later switch pays
// only the 60-80 us hardware latency, not the control-plane latency.
// Preloaded sessions live in one flat per-node array indexed by SessionId
// (src/ocstrx/session.h), so looking one up costs an index, not a hash.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/ocstrx/bundle.h"
#include "src/ocstrx/session.h"

namespace ihbd::ocstrx {

/// Per-node fabric manager owning the node's OCSTrx bundles.
class NodeFabricManager {
 public:
  /// Build a manager for a node with `gpus` GPUs and `bundles` OCSTrx
  /// bundles wired per the UBB 2.0 pairing of Fig. 4: bundle b serves the
  /// GPU pair (b, (b+1) mod gpus) with upper/lower half lanes. Every
  /// transceiver of the node shares `trx_model`.
  NodeFabricManager(int gpus, int bundles, int trx_per_bundle,
                    std::shared_ptr<const TrxModel> trx_model);
  NodeFabricManager(int gpus, int bundles, int trx_per_bundle,
                    const TrxConfig& trx_config = {});

  int gpu_count() const { return gpus_; }
  int bundle_count() const { return static_cast<int>(bundles_.size()); }
  Bundle& bundle(int index) { return bundles_.at(index); }
  const Bundle& bundle(int index) const { return bundles_.at(index); }

  /// Preload a session into the controller (fast-switch candidate).
  /// Overwrites any session preloaded under the same id. Throws ConfigError
  /// if the session names a bundle id >= bundle_count(): such a session
  /// could never apply.
  void preload_session(SessionId id, const Session& session);
  bool has_session(SessionId id) const {
    const std::size_t row = row_of(id);
    return row < session_paths_.size() && session_paths_[row] != kNotLoaded;
  }

  /// Apply a preloaded session. Returns the node-level switch latency (max
  /// across touched bundles; hardware-only, since it was preloaded), or
  /// nullopt if the session is unknown or a touched bundle has failed.
  /// Bundles are steered in id order and the walk stops at the first
  /// failed bundle.
  std::optional<double> apply_session(SessionId id, Rng& rng);

  /// Name-keyed forms: resolve the name (intern_session) and forward.
  void preload_session(const std::string& name, const Session& session) {
    preload_session(intern_session(name), session);
  }
  bool has_session(const std::string& name) const {
    return has_session(intern_session(name));
  }
  std::optional<double> apply_session(const std::string& name, Rng& rng) {
    return apply_session(intern_session(name), rng);
  }

  /// Apply an ad-hoc session (not preloaded: pays control-plane latency).
  std::optional<double> apply_adhoc(const Session& session, Rng& rng);

  /// Steer every healthy bundle to loopback (the idle default: idle OCSTrx
  /// operate in loopback mode, per §4.2).
  void park_all_loopback(Rng& rng);

  /// Aggregate bandwidth the node currently presents on external paths
  /// (Gbit/s), i.e. deliverable HBD bandwidth.
  double external_bandwidth_gbps() const;

  /// True iff all bundles are healthy.
  bool healthy() const;

 private:
  /// Session cells: an OcsPath value, or one of these markers.
  static constexpr std::int8_t kKeep = -1;       ///< bundle left untouched
  static constexpr std::int8_t kNotLoaded = -2;  ///< id not preloaded here

  std::size_t row_of(SessionId id) const {
    return static_cast<std::size_t>(id.index) * bundles_.size();
  }

  int gpus_;
  std::vector<Bundle> bundles_;
  /// Preloaded sessions, row-major by SessionId: bundle_count() cells per
  /// row, rows up to the largest id preloaded on this node.
  std::vector<std::int8_t> session_paths_;
};

}  // namespace ihbd::ocstrx
