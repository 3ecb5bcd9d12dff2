// ihbd-sweepd — multi-process driver for distributed sweeps.
//
// Any bench built on bench_util already speaks the shard protocol via its
// --shard-dir flag; this driver is the fleet-side convenience around that:
//
//   ihbd-sweepd worker      --shard-dir D [opts] -- <bench> [bench args]
//   ihbd-sweepd coordinator --shard-dir D [opts] -- <bench> [bench args]
//       exec the bench with the matching --shard-role flags appended.
//       Workers claim+execute shards; the coordinator only reduces (and is
//       the process whose stdout carries the bench's tables).
//
//   ihbd-sweepd run --shard-dir D --workers N [opts] -- <bench> [args]
//       one-machine fleet: fork N workers (stdout/stderr to
//       <dir>/logs/worker-K.log) plus a coordinator inheriting this
//       process's stdout, then wait for all of them. Exit status is the
//       coordinator's (worker failures are reported but non-fatal as long
//       as the coordinator reduced a complete result set).
//
//   ihbd-sweepd status --shard-dir D
//       render the run directory: per sweep, each shard's lease/result/
//       checkpoint state.
//
//   ihbd-sweepd merge-metrics --shard-dir D [-o metrics.json]
//       merge every per-owner metrics snapshot into one fleet
//       metrics.json.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/parse.h"
#include "src/common/serde.h"
#include "src/sweepd/protocol.h"

namespace {

namespace fs = std::filesystem;
using ihbd::sweepd::kResultMagic;
using ihbd::sweepd::kResultVersion;

constexpr const char* kUsage = R"(ihbd-sweepd — distributed sweep driver

usage:
  ihbd-sweepd worker      --shard-dir DIR [opts] -- <bench> [args...]
  ihbd-sweepd coordinator --shard-dir DIR [opts] -- <bench> [args...]
  ihbd-sweepd run         --shard-dir DIR --workers N [opts] -- <bench> [args...]
  ihbd-sweepd status      --shard-dir DIR
  ihbd-sweepd merge-metrics --shard-dir DIR [-o FILE]

options forwarded to the bench's shard layer:
  --owner NAME            participant id (default <host>-<pid>)
  --shard-count N         plan granularity (first creator wins, default 16)
  --lease-s SECONDS       stale-lease reclaim threshold (default 15)
  --poll-s SECONDS        wait-poll interval (default 0.2)
  --timeout-s SECONDS     give up waiting for results (default: never)
A shard checkpoints after every completed cell and renews its lease every
quarter of --lease-s.
)";

struct DriverOptions {
  std::string dir;
  std::string owner;
  std::string shard_count;
  std::string lease_s;
  std::string poll_s;
  std::string timeout_s;
  int workers = 2;
  std::string out_file = "metrics.json";
  std::vector<std::string> command;
};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "ihbd-sweepd: %s\n", message.c_str());
  std::exit(2);
}

/// `text` when it is a positive int; otherwise die naming the flag.
std::string positive_int_arg(const std::string& flag, std::string text) {
  if (!ihbd::parse_positive_int(text))
    die(flag + " expects a positive integer, got '" + text + "'");
  return text;
}

/// `text` when it is finite seconds (> 0, or >= 0 with `allow_zero`);
/// otherwise die naming the flag.
std::string seconds_arg(const std::string& flag, std::string text,
                        bool allow_zero) {
  if (!ihbd::parse_seconds(text, allow_zero))
    die(flag + " expects " + (allow_zero ? "seconds >= 0" : "seconds > 0") +
        ", got '" + text + "'");
  return text;
}

/// Every value is checked here, before `run` forks anything; the shard
/// flags are forwarded to the bench as the text the user gave.
DriverOptions parse_options(int argc, char** argv, int first) {
  DriverOptions opt;
  int i = first;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--shard-dir" || arg == "--dir") {
      opt.dir = next();
    } else if (arg == "--owner") {
      opt.owner = next();
    } else if (arg == "--shard-count") {
      opt.shard_count = positive_int_arg(arg, next());
    } else if (arg == "--lease-s") {
      opt.lease_s = seconds_arg(arg, next(), /*allow_zero=*/false);
    } else if (arg == "--poll-s") {
      opt.poll_s = seconds_arg(arg, next(), /*allow_zero=*/false);
    } else if (arg == "--timeout-s") {
      opt.timeout_s = seconds_arg(arg, next(), /*allow_zero=*/true);
    } else if (arg == "--workers") {
      opt.workers = std::stoi(positive_int_arg(arg, next()));
    } else if (arg == "-o" || arg == "--out") {
      opt.out_file = next();
    } else if (arg == "--") {
      for (++i; i < argc; ++i) opt.command.push_back(argv[i]);
      break;
    } else {
      die("unknown option '" + arg + "' (see --help)");
    }
  }
  if (opt.dir.empty()) die("--shard-dir is required");
  return opt;
}

/// The bench argv: the user's command plus the shard flags that wire it
/// into the run directory with the given role.
std::vector<std::string> bench_argv(const DriverOptions& opt,
                                    const std::string& role,
                                    const std::string& owner) {
  if (opt.command.empty()) die("no bench command given (use -- <bench> ...)");
  std::vector<std::string> args = opt.command;
  args.insert(args.end(), {"--shard-dir", opt.dir, "--shard-role", role});
  if (!owner.empty()) args.insert(args.end(), {"--shard-owner", owner});
  if (!opt.shard_count.empty())
    args.insert(args.end(), {"--shard-count", opt.shard_count});
  if (!opt.lease_s.empty())
    args.insert(args.end(), {"--shard-lease-s", opt.lease_s});
  if (!opt.poll_s.empty())
    args.insert(args.end(), {"--shard-poll-s", opt.poll_s});
  if (!opt.timeout_s.empty())
    args.insert(args.end(), {"--shard-timeout-s", opt.timeout_s});
  return args;
}

[[noreturn]] void exec_command(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execvp(argv[0], argv.data());
  std::fprintf(stderr, "ihbd-sweepd: cannot exec '%s': %s\n", argv[0],
               std::strerror(errno));
  std::exit(127);
}

/// Fork a child running `args`; when `log_path` is non-empty its
/// stdout+stderr go there (the coordinator keeps the parent's).
pid_t spawn(const std::vector<std::string>& args, const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid < 0) die(std::string("fork failed: ") + std::strerror(errno));
  if (pid == 0) {
    if (!log_path.empty()) {
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                            0644);
      // Without its log a worker would write into the coordinator's stdout.
      if (fd < 0) {
        std::fprintf(stderr, "ihbd-sweepd: cannot open log '%s': %s\n",
                     log_path.c_str(), std::strerror(errno));
        ::_exit(127);
      }
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    exec_command(args);
  }
  return pid;
}

int wait_status(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int cmd_run(const DriverOptions& opt) {
  const fs::path logs = fs::path(opt.dir) / "logs";
  std::error_code ec;
  fs::create_directories(logs, ec);
  if (ec) die("cannot create " + logs.string() + ": " + ec.message());
  std::vector<pid_t> workers;
  for (int w = 0; w < opt.workers; ++w) {
    const std::string owner = "worker-" + std::to_string(w);
    const std::string log = (logs / (owner + ".log")).string();
    workers.push_back(spawn(bench_argv(opt, "worker", owner), log));
    std::fprintf(stderr, "ihbd-sweepd: started %s (pid %d), log %s\n",
                 owner.c_str(), static_cast<int>(workers.back()), log.c_str());
  }
  const pid_t coordinator =
      spawn(bench_argv(opt, "coordinator", "coordinator"), "");
  const int coord_status = wait_status(coordinator);
  int worker_failures = 0;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const int status = wait_status(workers[w]);
    if (status != 0) {
      ++worker_failures;
      std::fprintf(stderr, "ihbd-sweepd: worker-%zu exited with status %d\n",
                   w, status);
    }
  }
  if (coord_status != 0) {
    std::fprintf(stderr, "ihbd-sweepd: coordinator exited with status %d\n",
                 coord_status);
    return coord_status;
  }
  // The coordinator reduced a complete, validated result set: dead workers
  // (preempted, killed) were by definition compensated for.
  if (worker_failures > 0) {
    std::fprintf(stderr,
                 "ihbd-sweepd: %d worker(s) failed but the coordinator "
                 "completed — their shards were reclaimed\n",
                 worker_failures);
  }
  return 0;
}

int cmd_status(const DriverOptions& opt) {
  const fs::path dir(opt.dir);
  if (!fs::exists(dir)) die("no run directory at " + opt.dir);
  std::vector<fs::path> sweeps;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("sweep-", 0) == 0) {
      sweeps.push_back(entry.path());
    }
  }
  std::sort(sweeps.begin(), sweeps.end());
  std::printf("run directory: %s (%zu sweep(s))\n", opt.dir.c_str(),
              sweeps.size());
  for (const fs::path& sweep : sweeps) {
    std::printf("\n%s\n", sweep.filename().c_str());
    std::map<std::string, std::string> state;  // stem -> description
    for (const auto& entry : fs::directory_iterator(sweep)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("s", 0) != 0) continue;
      const std::size_t dot = name.rfind('.');
      if (dot == std::string::npos) continue;
      const std::string stem = name.substr(0, dot);
      const std::string ext = name.substr(dot);
      if (ext == ".result") {
        const auto bytes = ihbd::serde::read_file(entry.path().string());
        std::string_view payload;
        const bool ok =
            bytes.has_value() &&
            ihbd::serde::parse_record(*bytes, kResultMagic, kResultVersion,
                                      &payload) ==
                ihbd::serde::FrameStatus::ok;
        state[stem] = ok ? "done (" + std::to_string(bytes->size()) + " B)"
                         : "INVALID RESULT";
      } else if (ext == ".lease" && !state.count(stem)) {
        std::string owner = "?";
        std::ifstream in(entry.path());
        std::getline(in, owner);
        state[stem] = "running (lease: " + owner + ")";
      } else if (ext == ".ckpt" && !state.count(stem)) {
        state[stem] = "checkpointed, unclaimed";
      }
    }
    for (const auto& [stem, desc] : state) {
      std::printf("  %-30s %s\n", stem.c_str(), desc.c_str());
    }
  }
  return 0;
}

int cmd_merge_metrics(const DriverOptions& opt) {
  const ihbd::obs::MetricsSnapshot merged =
      ihbd::sweepd::merge_metrics_dir(opt.dir);
  if (merged.counters.empty() && merged.gauges.empty() &&
      merged.histograms.empty()) {
    std::fprintf(stderr, "ihbd-sweepd: no metrics snapshots under %s\n",
                 opt.dir.c_str());
    return 1;
  }
  std::ofstream out(opt.out_file, std::ios::trunc);
  out << merged.to_json() << "\n";
  if (!out) die("cannot write " + opt.out_file);
  std::fprintf(stderr, "ihbd-sweepd: merged fleet metrics -> %s (%zu counters)\n",
               opt.out_file.c_str(), merged.counters.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "--help" ||
      std::string(argv[1]) == "-h") {
    std::fputs(kUsage, argc < 2 ? stderr : stdout);
    return argc < 2 ? 2 : 0;
  }
  const std::string verb = argv[1];
  const DriverOptions opt = parse_options(argc, argv, 2);
  if (verb == "worker" || verb == "coordinator") {
    exec_command(bench_argv(opt, verb, opt.owner));
  } else if (verb == "run") {
    return cmd_run(opt);
  } else if (verb == "status") {
    return cmd_status(opt);
  } else if (verb == "merge-metrics") {
    return cmd_merge_metrics(opt);
  }
  die("unknown verb '" + verb + "' (see --help)");
}
