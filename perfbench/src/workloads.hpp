// The benchmark's three workloads (README.md here says why each exists)
// and the output checks they share with the self-test.
//
// Every workload runs in one thread as a closed loop: set-up generates all
// inputs from the seed (repeated several times, the last state kept; the
// median is setup_s), then one timed phase issues one kind of operation
// back to back. An untraced run reports the end-to-end metrics; a traced run
// repeats the phase untraced and traced, half the time each, and reports
// per-layer metrics plus the tracing overhead.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "harness.hpp"
#include "netbase/prefix.hpp"
#include "power/activity_model.hpp"

namespace vrbench {

[[nodiscard]] RunResult run_route_churn(const Options& options);
[[nodiscard]] RunResult run_dataplane_skew(const Options& options);
[[nodiscard]] RunResult run_fleet_online(const Options& options);

/// Keys whose next hop differs from the oracle's.
[[nodiscard]] std::size_t count_next_hop_mismatches(
    std::span<const vr::net::NextHop> got,
    std::span<const vr::net::NextHop> expected);

/// True when every component of a priced trace is a finite, non-negative
/// wattage and the total is positive.
[[nodiscard]] bool watts_valid(const vr::power::ActivityPower& power);

}  // namespace vrbench
