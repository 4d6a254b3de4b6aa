#include "core/sweep.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace vr::core {

std::optional<std::size_t> parse_thread_count(std::string_view text) {
  unsigned long long parsed = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc() || end != text.data() + text.size() || parsed < 1 ||
      parsed > kMaxProbeThreads) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(parsed);
}

ConcurrencyProbe probe_concurrency() {
  if (const char* env = std::getenv("VR_THREADS")) {
    if (const auto threads = parse_thread_count(env)) {
      return {*threads, "env:VR_THREADS"};
    }
    // Anything parse_thread_count refuses falls through to the hardware
    // probe — loudly, once, because a silently ignored VR_THREADS turns
    // every benchmark comparison into noise.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "vrpower: ignoring invalid VR_THREADS=\"%s\" "
                   "(expected an integer in [1, %zu]); using the hardware "
                   "concurrency\n",
                   env, kMaxProbeThreads);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 2) return {hw, "hardware_concurrency"};
  // hardware_concurrency() may legally return 0 ("not computable") or an
  // affinity-limited 1 even on multi-core hosts; cross-check the online-
  // CPU count before concluding the machine is single-core.
#if defined(_SC_NPROCESSORS_ONLN)
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (online >= 1 && static_cast<unsigned long>(online) > hw) {
    return {static_cast<std::size_t>(online),
            "sysconf:_SC_NPROCESSORS_ONLN"};
  }
#endif
  if (hw >= 1) return {hw, "hardware_concurrency"};
  return {1, "fallback"};
}

std::size_t default_sweep_threads() { return probe_concurrency().threads; }

}  // namespace vr::core
