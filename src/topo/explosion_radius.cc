#include "src/topo/explosion_radius.h"

#include <algorithm>

#include "src/common/contracts.h"
#include "src/topo/baselines.h"
#include "src/topo/khop_ring.h"

namespace ihbd::topo {

int immediate_degraded_gpus(const HbdArchitecture& arch, int tp_size_gpus) {
  const int r = arch.gpus_per_node();
  if (const auto* ring = dynamic_cast<const KHopRing*>(&arch)) {
    // K >= 2: backup links restore full bandwidth around any single fault.
    // K = 1: no backup hop - both ring neighbors lose their link partner.
    return ring->k() >= 2 ? 0 : 2 * r;
  }
  if (dynamic_cast<const BigSwitch*>(&arch) ||
      dynamic_cast<const NvlSwitch*>(&arch)) {
    return 0;  // node fault: other ports unaffected (switch faults differ)
  }
  if (const auto* tpu = dynamic_cast<const TpuV4*>(&arch)) {
    return tpu->cube_gpus() - r;  // the rest of the cube
  }
  if (dynamic_cast<const SipRing*>(&arch)) {
    return tp_size_gpus - r;  // the rest of the static ring
  }
  IHBD_EXPECTS(false && "unknown architecture");
  return 0;
}

RadiusReport measure_radius(const HbdArchitecture& arch, int tp_size_gpus,
                            int trials, Rng& rng) {
  IHBD_EXPECTS(trials > 0);
  RadiusReport report;
  report.architecture = arch.name();
  report.immediate_degraded_gpus =
      immediate_degraded_gpus(arch, tp_size_gpus);

  const fault::PackedMask clean(arch.node_count());
  const int usable_clean = arch.allocate(clean, tp_size_gpus).usable_gpus;

  double total_loss = 0.0;
  int worst = 0;
  for (int t = 0; t < trials; ++t) {
    auto mask = clean;
    const int victim =
        static_cast<int>(rng.uniform_index(arch.node_count()));
    mask.set(victim, true);
    const int usable = arch.allocate(mask, tp_size_gpus).usable_gpus;
    // Loss beyond the faulty node's own GPUs.
    const int loss =
        std::max(0, usable_clean - usable - arch.gpus_per_node());
    total_loss += loss;
    worst = std::max(worst, loss);
  }
  report.mean_reallocation_loss_gpus = total_loss / trials;
  report.worst_reallocation_loss_gpus = worst;
  return report;
}

}  // namespace ihbd::topo
