// Common interface for High-Bandwidth Domain (HBD) architectures.
//
// Every architecture the paper evaluates (§6.1) implements this interface:
// given the faulty-node mask and a TP size, produce the best allocation of
// TP groups the architecture supports, from which the GPU waste ratio,
// maximum job scale and fault-waiting metrics all derive.
//
// Waste-ratio semantics follow §2.1: the numerator counts HEALTHY GPUs that
// are rendered unusable (fragmentation, disconnection, bandwidth
// degradation); faulty GPUs are excluded from the numerator but not the
// denominator (which is the full cluster).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/fault/packed_mask.h"

namespace ihbd::topo {

/// One placed TP group: the member nodes in ring order.
struct TpGroup {
  std::vector<int> nodes;
};

/// Result of allocating TP groups on a (possibly degraded) cluster.
struct Allocation {
  int total_gpus = 0;           ///< cluster size (denominator)
  int faulty_gpus = 0;          ///< GPUs on faulty nodes
  int usable_gpus = 0;          ///< GPUs inside placed TP groups
  int wasted_healthy_gpus = 0;  ///< healthy GPUs that could not be placed
  std::vector<TpGroup> groups;  ///< the placed groups

  /// Healthy-GPU waste ratio over the whole cluster (§2.1).
  double waste_ratio() const {
    return total_gpus == 0
               ? 0.0
               : static_cast<double>(wasted_healthy_gpus) / total_gpus;
  }
};

/// Abstract HBD architecture.
class HbdArchitecture {
 public:
  virtual ~HbdArchitecture() = default;

  virtual std::string name() const = 0;
  virtual int node_count() const = 0;
  virtual int gpus_per_node() const = 0;
  int total_gpus() const { return node_count() * gpus_per_node(); }

  /// Place as many TP groups of `tp_size_gpus` GPUs as the architecture
  /// allows given `faulty` (one bit per node). `tp_size_gpus` must be a
  /// positive multiple of gpus_per_node().
  virtual Allocation allocate(const fault::PackedMask& faulty,
                              int tp_size_gpus) const = 0;

 protected:
  /// Shared precondition checks; returns GPUs-per-group node count m.
  int check_args(const fault::PackedMask& faulty, int tp_size_gpus) const;
};

}  // namespace ihbd::topo
