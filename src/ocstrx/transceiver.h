// OCSTrx: the Silicon-Photonics OCS transceiver (paper §4.1, Design 1).
//
// An OCSTrx embeds the OCS switch matrix inside a QSFP-DD 800G transceiver.
// It exposes three Tx/Rx paths - two external (primary/backup neighbor) and
// one cross-lane internal loopback - with time-division bandwidth
// allocation: exactly one path carries the full GPU bandwidth at any time,
// and switching between paths costs the 60-80 us hardware reconfiguration
// latency (plus control-plane latency unless the target session was
// preloaded; see FastSwitchController).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "src/common/rng.h"
#include "src/evsim/engine.h"
#include "src/phy/switch_matrix.h"

namespace ihbd::ocstrx {

using phy::OcsPath;

/// Lifecycle state of one OCSTrx module.
enum class TrxState {
  kIdle,           ///< powered, no path activated (dark)
  kActive,         ///< one path carrying traffic
  kReconfiguring,  ///< switch matrix mid-flight; no path carries traffic
  kFailed,         ///< module failure (manifests as a regular transceiver
                   ///< failure - no new failure patterns, per the paper)
};

/// Static description of one OCSTrx module.
struct TrxConfig {
  double line_rate_gbps = 800.0;   ///< QSFP-DD 800G
  int serdes_pairs = 8;            ///< 8x112G electrical lanes
  phy::SwitchMatrixParams matrix;  ///< OCS physics
  /// Control-plane latency added when the target configuration was NOT
  /// preloaded (software/session setup; the paper's fast-switch mechanism
  /// removes this). ASSUMPTION: 500 us, consistent with "software-level
  /// delays such as reconnection at the network protocol layer" being
  /// excluded from the 60-80 us figure.
  double control_plane_latency_s = 500e-6;
};

/// The immutable physics of a module type: its config plus the switch
/// matrix built from it. Transceivers hold it by shared pointer, so a bundle
/// (or a whole fleet) carries one copy instead of one per module.
struct TrxModel {
  explicit TrxModel(const TrxConfig& config);

  TrxConfig config;
  phy::OcsSwitchMatrix matrix;
};

/// One OCS transceiver. Reconfiguration is modelled on the discrete-event
/// engine; a synchronous helper is provided for analytic callers.
class Transceiver {
 public:
  Transceiver(std::uint32_t id, const TrxConfig& config = {});
  Transceiver(std::uint32_t id, std::shared_ptr<const TrxModel> model);

  std::uint32_t id() const { return id_; }
  TrxState state() const { return state_; }
  const TrxConfig& config() const { return model_->config; }

  /// Currently active path (empty unless state()==kActive).
  std::optional<OcsPath> active_path() const { return active_; }

  /// Bandwidth currently deliverable on `path` in Gbit/s: the full line rate
  /// if that path is active, 0 otherwise (time-division allocation - no
  /// splitting across paths, per §4.1 Design 1).
  double bandwidth_gbps(OcsPath path) const;

  /// True if the module can carry traffic (not failed).
  bool healthy() const { return state_ != TrxState::kFailed; }

  /// --- Event-driven reconfiguration -------------------------------------
  /// Begin switching to `path`. Completion fires `done` on the engine after
  /// the hardware latency (plus control-plane latency unless `preloaded`).
  /// During the switch no path carries traffic. No-op (immediate `done`)
  /// if `path` is already active. Returns false if the module has failed or
  /// a reconfiguration is already in flight.
  bool reconfigure(evsim::Engine& engine, OcsPath path, Rng& rng,
                   bool preloaded, std::function<void()> done = {});

  /// --- Synchronous helper ------------------------------------------------
  /// Switch immediately and return the latency the switch would have taken
  /// (seconds). Returns std::nullopt if failed.
  std::optional<double> reconfigure_now(OcsPath path, Rng& rng,
                                        bool preloaded = true);

  /// Inject / clear a module failure.
  void fail();
  void repair();

  /// Physics access (loss / power / BER live in phy).
  const phy::OcsSwitchMatrix& matrix() const { return model_->matrix; }

 private:
  double switch_latency_s(Rng& rng, bool preloaded) const;

  std::shared_ptr<const TrxModel> model_;
  std::uint32_t id_;
  TrxState state_ = TrxState::kIdle;
  std::optional<OcsPath> active_;
  std::uint64_t epoch_ = 0;  ///< invalidates in-flight completions on fail()
};

}  // namespace ihbd::ocstrx
