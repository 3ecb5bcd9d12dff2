// Reproduces paper §5.1's reconfiguration-latency measurement: OCSTrx
// hardware switch (60-80 us), fast-switch (preloaded session) vs cold
// (control-plane) switching, and node-level session application. Runs on
// the vendored bench/microbench.h harness.
#include "bench/microbench.h"

#include <memory>

#include "src/common/rng.h"
#include "src/evsim/engine.h"
#include "src/ocstrx/fabric_manager.h"
#include "src/ocstrx/fleet.h"
#include "src/ocstrx/transceiver.h"

using namespace ihbd;
using ocstrx::OcsPath;

namespace {

void BM_HardwareReconfigLatency(benchmark::State& state) {
  ocstrx::Transceiver trx(0);
  Rng rng(1);
  double total = 0.0;
  std::int64_t n = 0;
  bool flip = false;
  for (auto _ : state) {
    const auto latency = trx.reconfigure_now(
        flip ? OcsPath::kExternal1 : OcsPath::kExternal2, rng);
    flip = !flip;
    total += *latency;
    ++n;
    benchmark::DoNotOptimize(latency);
  }
  state.counters["sim_latency_us"] =
      benchmark::Counter(total / n * 1e6);
}
BENCHMARK(BM_HardwareReconfigLatency);

void BM_FastSwitchVsCold(benchmark::State& state) {
  const bool preloaded = state.range(0) != 0;
  ocstrx::Transceiver trx(0);
  Rng rng(1);
  double total = 0.0;
  std::int64_t n = 0;
  bool flip = false;
  for (auto _ : state) {
    const auto latency = trx.reconfigure_now(
        flip ? OcsPath::kExternal1 : OcsPath::kLoopback, rng, preloaded);
    flip = !flip;
    total += *latency;
    ++n;
  }
  state.counters["sim_latency_us"] = benchmark::Counter(total / n * 1e6);
}
BENCHMARK(BM_FastSwitchVsCold)->Arg(1)->Arg(0);

void BM_NodeSessionSwitch(benchmark::State& state) {
  // A full node steering all bundles between two preloaded topologies,
  // addressed by interned SessionId as the control plane's drains do.
  ocstrx::NodeFabricManager fm(4, 4, 8);
  ocstrx::Session ring, park;
  for (std::uint32_t b = 0; b < 4; ++b) {
    ring[b] = b < 2 ? OcsPath::kExternal1 : OcsPath::kLoopback;
    park[b] = OcsPath::kLoopback;
  }
  const ocstrx::SessionId ring_id = ocstrx::intern_session("ring");
  const ocstrx::SessionId park_id = ocstrx::intern_session("park");
  fm.preload_session(ring_id, ring);
  fm.preload_session(park_id, park);
  Rng rng(1);
  double total = 0.0;
  std::int64_t n = 0;
  bool flip = false;
  for (auto _ : state) {
    const auto latency = fm.apply_session(flip ? ring_id : park_id, rng);
    flip = !flip;
    total += *latency;
    ++n;
  }
  state.counters["sim_latency_us"] = benchmark::Counter(total / n * 1e6);
}
BENCHMARK(BM_NodeSessionSwitch);

void BM_FleetSessionSwitch(benchmark::State& state) {
  // BM_NodeSessionSwitch on the control plane's flat actuator state
  // (ocstrx::Fleet): same node shape, sessions and switch sequence.
  ocstrx::Fleet fleet(1, 4, 4, 8,
                      std::make_shared<const ocstrx::TrxModel>(
                          ocstrx::TrxConfig{}));
  ocstrx::Session ring, park;
  for (std::uint32_t b = 0; b < 4; ++b) {
    ring[b] = b < 2 ? OcsPath::kExternal1 : OcsPath::kLoopback;
    park[b] = OcsPath::kLoopback;
  }
  const ocstrx::SessionId ring_id = ocstrx::intern_session("ring");
  const ocstrx::SessionId park_id = ocstrx::intern_session("park");
  fleet.preload_session(ring_id, ring);
  fleet.preload_session(park_id, park);
  Rng rng(1);
  double total = 0.0;
  std::int64_t n = 0;
  bool flip = false;
  for (auto _ : state) {
    const auto latency = fleet.apply_session(0, flip ? ring_id : park_id, rng);
    flip = !flip;
    total += *latency;
    ++n;
  }
  state.counters["sim_latency_us"] = benchmark::Counter(total / n * 1e6);
}
BENCHMARK(BM_FleetSessionSwitch);

void BM_EventDrivenBundleSteer(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    ocstrx::Bundle bundle(0, 0, 1, 8);
    evsim::Engine engine;
    bundle.steer_async(engine, OcsPath::kExternal2, rng, true);
    engine.run();
    benchmark::DoNotOptimize(engine.now());
  }
}
BENCHMARK(BM_EventDrivenBundleSteer);

}  // namespace

BENCHMARK_MAIN();
