// Shared helpers for the bench harness. Every bench binary regenerates one
// table or figure of the paper: it prints the same rows/series the paper
// reports and, with --csv <dir>, also writes machine-readable CSV.
//
// Observability (--metrics / --trace-out) never perturbs the bench output:
// the metrics snapshot table goes to STDERR and the artifacts (metrics.json,
// the Perfetto trace) are separate files, so stdout and the CSVs stay
// byte-identical with instrumentation on or off — CI diffs them.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "src/common/csv.h"
#include "src/common/parse.h"
#include "src/common/table.h"
#include "src/fault/physics_generator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ihbd::bench {

struct Options {
  std::string csv_dir;  ///< empty = stdout only
  bool quick = false;   ///< reduced trial counts (CI mode)
  int trials = 0;       ///< 0 = the bench's own default (--trials N)
  int threads = 0;      ///< 0 = hardware concurrency (--threads N)
  /// --trace-model poisson|physics|storm: which synthetic fault-trace
  /// family the fault benches replay (src/fault/generator.h Poisson draws
  /// vs src/fault/physics_generator.h degradation / degradation+storms).
  /// All three are calibrated to the paper's Appendix A statistics; output
  /// stays byte-identical across thread counts within any one model.
  fault::TraceModel trace_model = fault::TraceModel::kPoisson;
  /// --metrics: enable the src/obs metrics registry; at exit, print the
  /// snapshot table to stderr and write metrics.json (into --csv dir when
  /// given, else the working directory).
  bool metrics = false;
  /// --trace-out <file>: enable span tracing and export a Chrome
  /// trace-event / Perfetto JSON trace to this path at exit.
  std::string trace_out;
};

namespace detail {

inline std::string usage(const char* prog) {
  return std::string("usage: ") + prog +
      " [--quick] [--csv <dir>] [--trials N] [--threads N] "
      "[--trace-model M] [--metrics] [--trace-out <file>] [--help]\n"
      "  --quick             reduced trial counts (CI smoke mode)\n"
      "  --csv <dir>         also write machine-readable CSV into <dir>\n"
      "  --trials N          override the bench's default trial count\n"
      "  --threads N         worker threads (default: hardware concurrency)\n"
      "  --trace-model M     fault-trace family: poisson (default) | physics\n"
      "                      (degradation + thermal bursts) | storm (adds\n"
      "                      correlated blast-radius failures)\n"
      "  --metrics           collect src/obs metrics; print a snapshot table\n"
      "                      to stderr and write metrics.json at exit\n"
      "  --trace-out <file>  record spans; write a Perfetto / Chrome\n"
      "                      trace-event JSON trace to <file> at exit\n"
      "  --help              print this help and exit\n";
}

[[noreturn]] inline void usage_error(const char* prog, const std::string& why) {
  std::fprintf(stderr, "%s: %s\n%s", prog, why.c_str(),
               usage(prog).c_str());
  std::exit(2);
}

[[noreturn]] inline void print_help(const char* prog) {
  std::fputs(usage(prog).c_str(), stdout);
  std::exit(0);
}

inline fault::TraceModel parse_trace_model(const char* prog,
                                           const std::string& flag,
                                           const char* text) {
  const std::string value = text;
  if (value == "poisson") return fault::TraceModel::kPoisson;
  if (value == "physics") return fault::TraceModel::kPhysics;
  if (value == "storm") return fault::TraceModel::kStorm;
  usage_error(prog,
              flag + " expects poisson|physics|storm, got '" + value + "'");
}

inline int int_flag(const char* prog, const std::string& flag,
                    const char* text) {
  const std::optional<int> n = parse_positive_int(text);
  if (!n)
    usage_error(prog, flag + " expects a positive integer, got '" +
                          std::string(text) + "'");
  return *n;
}

}  // namespace detail

/// Parse the shared bench flags. Unknown flags and missing flag values are
/// hard errors (exit 2) so typos cannot silently run the default config;
/// --help prints usage to stdout and exits 0. Enables the obs subsystems
/// requested by --metrics / --trace-out before returning, so spans and
/// counters cover the whole run.
inline Options parse_args(int argc, char** argv) {
  Options opt;
  const char* const prog = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      if (++i >= argc) detail::usage_error(prog, "--csv expects a directory");
      opt.csv_dir = argv[i];
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--trials") {
      if (++i >= argc) detail::usage_error(prog, "--trials expects a value");
      opt.trials = detail::int_flag(prog, arg, argv[i]);
    } else if (arg == "--threads") {
      if (++i >= argc) detail::usage_error(prog, "--threads expects a value");
      opt.threads = detail::int_flag(prog, arg, argv[i]);
    } else if (arg == "--trace-model") {
      if (++i >= argc)
        detail::usage_error(prog, "--trace-model expects poisson|physics|storm");
      opt.trace_model = detail::parse_trace_model(prog, arg, argv[i]);
    } else if (arg == "--metrics") {
      opt.metrics = true;
    } else if (arg == "--trace-out") {
      if (++i >= argc) detail::usage_error(prog, "--trace-out expects a file");
      opt.trace_out = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      detail::print_help(prog);
    } else {
      detail::usage_error(prog, "unknown flag '" + arg + "'");
    }
  }
  if (opt.metrics) obs::set_enabled(true);
  if (!opt.trace_out.empty()) obs::set_trace_enabled(true);
  return opt;
}

/// The trial count to use: the --trials override, else the bench default.
inline int trials_or(const Options& opt, int bench_default) {
  return opt.trials > 0 ? opt.trials : bench_default;
}

inline void emit(const Options& opt, const std::string& name,
                 const Table& table) {
  table.print();
  std::puts("");
  if (!opt.csv_dir.empty()) write_csv(opt.csv_dir, name, table);
}

inline void banner(const std::string& what) {
  std::printf("=== %s ===\n", what.c_str());
}

/// Flush observability artifacts at the end of a bench run. With --metrics:
/// snapshot table to stderr plus metrics.json (in --csv dir when given,
/// else "."). With --trace-out: the span trace as Perfetto-loadable JSON.
/// Everything goes to stderr or separate files — stdout stays byte-identical
/// to an uninstrumented run.
inline void finish(const Options& opt) {
  if (opt.metrics) {
    const obs::MetricsSnapshot snap = obs::snapshot();
    std::fputs(snap.to_table().to_string().c_str(), stderr);
    const std::string path =
        (opt.csv_dir.empty() ? std::string(".") : opt.csv_dir) +
        "/metrics.json";
    if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
      const std::string json = snap.to_json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::fprintf(stderr, "metrics snapshot written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics to '%s'\n", path.c_str());
    }
  }
  if (!opt.trace_out.empty()) {
    if (obs::write_trace_json(opt.trace_out)) {
      std::fprintf(stderr, "trace written to %s", opt.trace_out.c_str());
      if (const std::uint64_t dropped = obs::trace_dropped(); dropped > 0)
        std::fprintf(stderr, " (%llu events dropped at the per-thread cap)",
                     static_cast<unsigned long long>(dropped));
      std::fputc('\n', stderr);
    }
  }
}

}  // namespace ihbd::bench
