// OCSTrx bundles and the intra-node wiring of paper §4.2 / Fig. 4.
//
// A node with R GPUs carries up to R bundles of OCSTrx. Each bundle is a
// group of transceivers (e.g. 8 x 800G for a 6.4 Tbps GPU) wired to a PAIR
// of GPUs: one GPU on the upper-half SerDes lanes, the other on the lower
// half. Activating the bundle's loopback path stitches the two GPUs
// together inside the node (ring construction); activating an external path
// extends the ring to a neighbor node.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/ocstrx/transceiver.h"

namespace ihbd::ocstrx {

/// A bundle of OCSTrx modules serving one GPU pair.
class Bundle {
 public:
  /// `id` is unique within the node; `gpu_upper`/`gpu_lower` are the node-
  /// local GPU indices wired to the upper/lower half lanes. Every member
  /// shares `trx_model`.
  Bundle(std::uint32_t id, int gpu_upper, int gpu_lower, int trx_count,
         std::shared_ptr<const TrxModel> trx_model);
  Bundle(std::uint32_t id, int gpu_upper, int gpu_lower, int trx_count,
         const TrxConfig& trx_config = {});

  std::uint32_t id() const { return id_; }
  int gpu_upper() const { return gpu_upper_; }
  int gpu_lower() const { return gpu_lower_; }
  int trx_count() const { return static_cast<int>(trxs_.size()); }

  /// Aggregate line rate across member transceivers (Gbit/s).
  double total_line_rate_gbps() const;

  /// Aggregate bandwidth currently deliverable on `path` (Gbit/s): sums
  /// member transceivers whose active path is `path`.
  double bandwidth_gbps(OcsPath path) const;

  /// Synchronously steer every member transceiver to `path`. Returns the
  /// bundle switch latency = max member latency (members switch in
  /// parallel), or nullopt if any member has failed.
  std::optional<double> steer(OcsPath path, Rng& rng, bool preloaded = true);

  /// Event-driven steer: fires `done` when the slowest member completes.
  /// Returns false if any member is failed/busy (no state changed... members
  /// already switched are left pointing at `path`; callers treat a false
  /// return as a fault needing topology-level bypass).
  bool steer_async(evsim::Engine& engine, OcsPath path, Rng& rng,
                   bool preloaded, std::function<void()> done = {});

  /// True iff every member transceiver is healthy. O(1): members fail and
  /// recover only through fail / repair / fail_one, which keep the count.
  bool healthy() const { return failed_ == 0; }
  /// Fail / repair the whole bundle (transceiver-level failures manifest
  /// as regular module failures).
  void fail();
  void repair();
  /// Fail exactly one member (partial-bandwidth degradation).
  void fail_one(int index);

  const Transceiver& trx(int index) const { return trxs_.at(index); }

 private:
  std::uint32_t id_;
  int gpu_upper_;
  int gpu_lower_;
  int failed_ = 0;  ///< members in TrxState::kFailed
  std::vector<Transceiver> trxs_;
};

}  // namespace ihbd::ocstrx
