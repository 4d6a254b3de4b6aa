// Shared plumbing for the figure/table bench binaries: every binary prints
// a human-readable table followed by machine-readable CSV so EXPERIMENTS.md
// can be regenerated from a single run.
//
// Sweep-heavy binaries accept:
//   --threads N   worker threads for the K sweeps, an integer in
//                 [1, 4096] (default: VR_THREADS env var, else the
//                 hardware concurrency; output is bit-identical for every
//                 thread count; any other value exits with status 2)
//   --serial      shorthand for --threads 1 --no-cache (the seed behaviour)
//   --no-cache    rebuild every workload instead of using WorkloadCache
//
// Every binary that reads argv accepts:
//   --metrics[=path.json]   at exit, dump the process-wide obs registry as
//                           JSON to `path` (default metrics.json). Written
//                           to a file, never stdout, so the golden
//                           byte-for-byte stdout comparisons are unaffected.
//
// Each such binary names its flags in one table for parse_flags, which
// rejects an unknown flag or a flag missing its value with status 2.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>

#include "common/table.hpp"
#include "core/figures.hpp"
#include "core/sweep.hpp"
#include "obs/registry.hpp"
#include "obs/sink.hpp"

// The build a report binary was compiled from; bench/CMakeLists.txt sets
// both for the report binaries at configure time.
#ifndef VR_BUILD_COMMIT
#define VR_BUILD_COMMIT "unknown"
#endif
#ifndef VR_BUILD_TYPE
#define VR_BUILD_TYPE "unknown"
#endif

namespace vr::bench {

/// JSON object naming what a report was measured on: the source commit
/// (`-dirty` when the tree had uncommitted changes, `unknown` outside a git
/// checkout), the CMake build type and the probed CPU count.
inline std::string build_stamp_json(std::size_t cpus) {
  return std::string("{\"commit\": \"") + VR_BUILD_COMMIT +
         "\", \"build_type\": \"" + VR_BUILD_TYPE +
         "\", \"cpus\": " + std::to_string(cpus) + "}";
}

/// The value of a `--threads` flag, checked by core::parse_thread_count.
/// Any other value ends the process with status 2 and a message naming the
/// accepted range.
inline std::size_t threads_flag(const char* value) {
  if (const auto threads = core::parse_thread_count(value)) return *threads;
  std::cerr << "error: --threads expects an integer in [1, "
            << core::kMaxProbeThreads << "], got \"" << value << "\"\n";
  std::exit(2);
}

/// Paper-sized sweep options (3 725-prefix tables, K = 1..15, N = 28).
inline core::FigureOptions paper_options() { return core::FigureOptions{}; }

/// One command-line flag of a bench binary. A flag that takes a value
/// consumes the next argument and passes it to `apply`; a switch passes
/// nullptr.
struct Flag {
  std::string_view name;
  bool takes_value = false;
  std::function<void(const char* value)> apply;
};

/// Ends the process with status 2 after naming the bad flag and listing
/// the accepted ones.
[[noreturn]] inline void flag_error(const std::string& why,
                                    std::initializer_list<Flag> flags) {
  std::cerr << "error: " << why << "\naccepted flags:";
  for (const Flag& flag : flags) {
    std::cerr << ' ' << flag.name << (flag.takes_value ? " <value>" : "");
  }
  std::cerr << " --metrics[=path]\n";
  std::exit(2);
}

/// Applies argv's flags in order against `flags` and `--metrics[=path]`.
/// An unknown flag, a flag whose value is missing (last argument, or the
/// next argument is itself a `--` flag) or an empty `--metrics=` ends the
/// process with status 2 and a message naming the flag, before the binary
/// has started any work or written any file.
inline void parse_flags(int argc, char** argv,
                        std::initializer_list<Flag> flags = {}) {
  constexpr std::string_view kMetricsPrefix = "--metrics=";
  static std::string metrics_path;  // read by the atexit hook
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--metrics" || arg.starts_with(kMetricsPrefix)) {
      metrics_path = arg == "--metrics" ? "metrics.json"
                                        : arg.substr(kMetricsPrefix.size());
      if (metrics_path.empty()) flag_error("--metrics= expects a path", flags);
      continue;
    }
    const Flag* flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& known) { return known.name == arg; });
    if (flag == flags.end()) {
      flag_error("unknown flag \"" + std::string(arg) + '"', flags);
    }
    const char* value = nullptr;
    if (flag->takes_value) {
      if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
        flag_error(std::string(arg) + " expects a value", flags);
      }
      value = argv[++i];
    }
    flag->apply(value);
  }
  if (metrics_path.empty()) return;
  // Touch the registry before registering the hook: statics are torn down
  // in reverse construction order, so this guarantees the registry is
  // still alive when the atexit callback runs after main() returns.
  (void)obs::Registry::global();
  std::atexit([] {
    const obs::MetricsSink sink(obs::Registry::global());
    if (!sink.write_json_file(metrics_path)) {
      std::cerr << "vrpower: failed to write metrics to " << metrics_path
                << '\n';
    }
  });
}

/// Paper-sized options with the sweep flags applied.
inline core::FigureOptions paper_options(int argc, char** argv) {
  core::FigureOptions opt;
  parse_flags(argc, argv,
              {{"--threads", true,
                [&](const char* value) { opt.threads = threads_flag(value); }},
               {"--serial", false,
                [&](const char*) {
                  opt.threads = 1;
                  opt.use_cache = false;
                }},
               {"--no-cache", false,
                [&](const char*) { opt.use_cache = false; }}});
  return opt;
}

inline void emit(const SeriesTable& table) {
  table.render(std::cout);
  std::cout << "\n--- CSV ---\n";
  table.render_csv(std::cout);
  std::cout << '\n';
}

inline void emit(const TextTable& table) {
  table.render(std::cout);
  std::cout << "\n--- CSV ---\n";
  table.render_csv(std::cout);
  std::cout << '\n';
}

}  // namespace vr::bench
