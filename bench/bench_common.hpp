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
// Every binary accepts:
//   --metrics[=path.json]   at exit, dump the process-wide obs registry as
//                           JSON to `path` (default metrics.json). Written
//                           to a file, never stdout, so the golden
//                           byte-for-byte stdout comparisons are unaffected.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

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

/// Consumes a `--metrics[=path]` argument if present: registers an atexit
/// hook that serializes obs::Registry::global() to the JSON file. Safe to
/// call from any main(); flags it does not own are left for the caller.
inline void handle_metrics_flag(int argc, char** argv) {
  static std::string path;  // read by the atexit hook after main returns
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics") {
      path = "metrics.json";
    } else if (arg.rfind("--metrics=", 0) == 0) {
      path = arg.substr(std::string("--metrics=").size());
    } else {
      continue;
    }
    // Touch the registry before registering the hook: statics are torn
    // down in reverse construction order, so this guarantees the registry
    // is still alive when the atexit callback runs after main() returns.
    (void)obs::Registry::global();
    std::atexit([] {
      const obs::MetricsSink sink(obs::Registry::global());
      if (!sink.write_json_file(path)) {
        std::cerr << "vrpower: failed to write metrics to " << path << '\n';
      }
    });
    return;
  }
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

/// Paper-sized options with the common command-line flags applied.
inline core::FigureOptions paper_options(int argc, char** argv) {
  core::FigureOptions opt;
  handle_metrics_flag(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      opt.threads = threads_flag(argv[++i]);
    } else if (arg == "--serial") {
      opt.threads = 1;
      opt.use_cache = false;
    } else if (arg == "--no-cache") {
      opt.use_cache = false;
    }
  }
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
