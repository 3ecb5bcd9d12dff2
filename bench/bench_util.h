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
#include <memory>
#include <optional>
#include <string>

#include "src/common/csv.h"
#include "src/common/parse.h"
#include "src/common/table.h"
#include "src/fault/physics_generator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/shard.h"
#include "src/sweepd/protocol.h"

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
  /// stays byte-identical across threads/shards within any one model.
  fault::TraceModel trace_model = fault::TraceModel::kPoisson;
  /// --metrics: enable the src/obs metrics registry; at exit, print the
  /// snapshot table to stderr and write metrics.json (into --csv dir when
  /// given, else the working directory).
  bool metrics = false;
  /// --trace-out <file>: enable span tracing and export a Chrome
  /// trace-event / Perfetto JSON trace to this path at exit.
  std::string trace_out;
  /// --shard-dir <dir>: join a distributed sweep through the shared run
  /// directory (src/sweepd/protocol.h). Every codec-equipped sweep in the
  /// bench then runs plan -> claim/execute -> reduce across all processes
  /// sharing the dir; stdout stays byte-identical to a single-process run
  /// (all sharding chatter goes to stderr). Empty = local execution.
  std::string shard_dir;
  /// --shard-role worker|coordinator (default worker): whether this
  /// process claims+executes shards or only waits and reduces.
  bool shard_execute = true;
  std::string shard_owner;        ///< --shard-owner (default <host>-<pid>)
  int shard_count = 16;           ///< --shard-count (plan granularity)
  double shard_lease_s = 15.0;    ///< --shard-lease-s (stale threshold)
  double shard_poll_s = 0.2;      ///< --shard-poll-s (wait poll interval)
  double shard_timeout_s = 0.0;   ///< --shard-timeout-s (0 = wait forever)
};

namespace detail {

inline std::string usage(const char* prog) {
  return std::string("usage: ") + prog +
      " [--quick] [--csv <dir>] [--trials N] [--threads N] "
      "[--metrics] [--trace-out <file>] [--help]\n"
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
      "  --shard-dir <dir>   join a distributed sweep via this shared run\n"
      "                      directory (see ihbd-sweepd); stdout stays\n"
      "                      byte-identical to a single-process run\n"
      "  --shard-role R      worker (claim+execute, default) | coordinator\n"
      "                      (wait and reduce only)\n"
      "  --shard-owner NAME  participant id (default <host>-<pid>)\n"
      "  --shard-count N     plan granularity (first dir creator wins; 16)\n"
      "  --shard-lease-s S   reclaim leases idle longer than S (15)\n"
      "  --shard-poll-s S    poll interval while waiting on results (0.2)\n"
      "  --shard-timeout-s S give up waiting after S seconds (0 = never)\n"
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

inline double seconds_flag(const char* prog, const std::string& flag,
                           const char* text, bool allow_zero) {
  const std::optional<double> s = parse_seconds(text, allow_zero);
  if (!s)
    usage_error(prog, flag + " expects a duration in seconds, got '" +
                          std::string(text) + "'");
  return *s;
}

/// The ambient FileShardContext installed by --shard-dir. Owned here so it
/// outlives every sweep in the bench and is still around for finish()'s
/// fleet metrics merge.
inline std::unique_ptr<sweepd::FileShardContext>& shard_context_holder() {
  static std::unique_ptr<sweepd::FileShardContext> holder;
  return holder;
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
    } else if (arg == "--shard-dir") {
      if (++i >= argc)
        detail::usage_error(prog, "--shard-dir expects a directory");
      opt.shard_dir = argv[i];
    } else if (arg == "--shard-role") {
      if (++i >= argc)
        detail::usage_error(prog, "--shard-role expects worker|coordinator");
      const std::string role = argv[i];
      if (role == "worker")
        opt.shard_execute = true;
      else if (role == "coordinator")
        opt.shard_execute = false;
      else
        detail::usage_error(prog, "--shard-role expects worker|coordinator, "
                                  "got '" + role + "'");
    } else if (arg == "--shard-owner") {
      if (++i >= argc) detail::usage_error(prog, "--shard-owner expects a name");
      opt.shard_owner = argv[i];
    } else if (arg == "--shard-count") {
      if (++i >= argc) detail::usage_error(prog, "--shard-count expects a value");
      opt.shard_count = detail::int_flag(prog, arg, argv[i]);
    } else if (arg == "--shard-lease-s") {
      if (++i >= argc)
        detail::usage_error(prog, "--shard-lease-s expects seconds");
      opt.shard_lease_s =
          detail::seconds_flag(prog, arg, argv[i], /*allow_zero=*/false);
    } else if (arg == "--shard-poll-s") {
      if (++i >= argc)
        detail::usage_error(prog, "--shard-poll-s expects seconds");
      opt.shard_poll_s =
          detail::seconds_flag(prog, arg, argv[i], /*allow_zero=*/false);
    } else if (arg == "--shard-timeout-s") {
      if (++i >= argc)
        detail::usage_error(prog, "--shard-timeout-s expects seconds");
      opt.shard_timeout_s =
          detail::seconds_flag(prog, arg, argv[i], /*allow_zero=*/true);
    } else if (arg == "--help" || arg == "-h") {
      detail::print_help(prog);
    } else {
      detail::usage_error(prog, "unknown flag '" + arg + "'");
    }
  }
  if (opt.metrics) obs::set_enabled(true);
  if (!opt.trace_out.empty()) obs::set_trace_enabled(true);
  if (!opt.shard_dir.empty()) {
    sweepd::FileShardOptions fso;
    fso.dir = opt.shard_dir;
    fso.owner = opt.shard_owner;
    fso.execute = opt.shard_execute;
    fso.lease_timeout_s = opt.shard_lease_s;
    fso.poll_interval_s = opt.shard_poll_s;
    fso.wait_timeout_s = opt.shard_timeout_s;
    fso.max_shards = static_cast<std::size_t>(opt.shard_count);
    auto& holder = detail::shard_context_holder();
    holder = std::make_unique<sweepd::FileShardContext>(std::move(fso));
    runtime::shard::set_context(holder.get());
    std::fprintf(stderr, "shard: joined run dir %s as %s (%s)\n",
                 holder->options().dir.c_str(), holder->options().owner.c_str(),
                 opt.shard_execute ? "worker" : "coordinator");
  }
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
    obs::MetricsSnapshot snap = obs::snapshot();
    if (auto& ctx = detail::shard_context_holder(); ctx != nullptr) {
      // Publish this process's counters into the run dir, then report the
      // whole fleet: metrics.json holds one merged snapshot no matter how
      // many workers took part (kill-resumed workers' checkpointed counters
      // included via the carried snapshots).
      if (ctx->write_own_metrics(snap))
        std::fprintf(stderr, "shard: metrics published under %s/metrics\n",
                     ctx->options().dir.c_str());
      snap = sweepd::merge_metrics_dir(ctx->options().dir);
    }
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
