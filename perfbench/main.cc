// Benchmark binary: runs one workload for a time budget and prints one JSON
// document with every measurement (end-to-end distributions, the per-layer
// split of a traced run, output checks and simulated statistics). run.py
// builds this binary, runs it once per benchmark run and reports.
//
//   perfbench --workload ctrl_steady|ctrl_storm|replay_mc --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --selftest
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench/workloads.h"
#include "src/obs/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

bool check(Outcome& out, const std::string& name, bool ok) {
  const auto [it, inserted] = out.checks.emplace(name, ok);
  if (!inserted) it->second = it->second && ok;
  return ok;
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload ctrl_steady|ctrl_storm|replay_mc"
               " --seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       perfbench --selftest\n";
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  opt.threads = std::max(1, std::min(4, hw) - 1);
  return opt;
}

Outcome run(const RunOptions& opt) {
  if (opt.workload == "ctrl_steady") return run_ctrl_steady(opt);
  if (opt.workload == "ctrl_storm") return run_ctrl_storm(opt);
  if (opt.workload == "replay_mc") return run_replay_mc(opt);
  usage(("unknown workload " + opt.workload).c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    const int failures = run_selftest();
    std::cout << (failures == 0 ? "selftest ok\n" : "selftest FAILED\n");
    return failures == 0 ? 0 : 1;
  }
  const RunOptions opt = parse(argc, argv);

  Outcome out;
  try {
    out = run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  Json layers;
  for (const auto& [name, value] : out.layers) layers.num(name, value);
  Json checks;
  bool checks_ok = true;
  for (const auto& [name, ok] : out.checks) {
    checks.flag(name, ok);
    checks_ok &= ok;
  }

  Json e2e;
  e2e.dist("wall_s", dist_of(out.wall_s))
      .dist("setup_s", dist_of(out.setup_s))
      .dist("peak_rss_mb", dist_of({out.peak_rss_mb}))
      .dist("sim_events_per_s", dist_of(out.events_per_s))
      .dist("tick_ms_p50", dist_of(out.tick_ms_p50))
      .dist("tick_ms_p90", dist_of(out.tick_ms_p90));
  Json host;
  host.dist("wall_s", dist_of(out.host_wall_s))
      .dist("cpu_s", dist_of(out.host_cpu_s))
      .dist("speed", dist_of(out.host_speed));

  Json doc;
  doc.str("workload", opt.workload)
      .count("seed", opt.seed)
      .flag("trace", opt.trace)
      .num("seconds", opt.seconds)
      .count("threads", static_cast<std::uint64_t>(opt.threads))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER)
      .count("reps", out.wall_s.size())
      .count("tick_samples", out.tick_samples)
      .flag("tick_p90_supported", tail_supported(out.tick_samples, 0.90))
      .count("attempted", out.attempted)
      .count("failed", out.failed)
      .flag("correct", out.failed == 0 && checks_ok && out.attempted > 0)
      .raw("checks", checks.dump())
      .raw("e2e", e2e.dump())
      .raw("host", host.dump())
      .raw("layers", layers.dump())
      .raw("sim", out.sim.dump());
  std::cout << doc.dump() << std::endl;

  if (opt.trace && !opt.trace_out.empty() &&
      !ihbd::obs::write_trace_json(opt.trace_out)) {
    return 1;
  }
  return 0;
}
