// Virtual-channel allocation policies for the cycle-level virtualized
// dataplane (DESIGN.md §15). The paper's three sharing schemes partition
// the router statically (NV: per-VN devices, VS: per-VN engines on one
// device, VM: one time-shared engine); at cycle granularity the same
// choice reappears one level down as *buffer* sharing: which virtual
// network may occupy which input virtual channel. The three static
// policies carve the VC pool into fixed per-VN partitions; the dynamic
// policy (Onsori & Safaei, arXiv:1412.2950) lets VNs contend for a shared
// pool bounded by per-VN floors (guaranteed minimum, so no VN can be
// starved of buffering) and ceilings (maximum, so no VN can monopolize).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/traffic.hpp"

namespace vr::dataplane::cycle {

/// How the input VC pool is shared among virtual networks.
enum class VcPolicy : std::uint8_t {
  kNvStatic,  ///< NV: fixed per-VN partition, one lookup engine per VN
  kVsStatic,  ///< VS: fixed per-VN partition, K space-shared engines
  kVmStatic,  ///< VM: fixed per-VN partition, one time-shared engine
  kDynamic,   ///< DVC: shared pool with per-VN floors/ceilings, merged engine
};

[[nodiscard]] constexpr const char* to_string(VcPolicy policy) noexcept {
  switch (policy) {
    case VcPolicy::kNvStatic:
      return "nv-static";
    case VcPolicy::kVsStatic:
      return "vs-static";
    case VcPolicy::kVmStatic:
      return "vm-static";
    case VcPolicy::kDynamic:
      return "dynamic-vc";
  }
  return "?";
}

/// Whether the policy's lookup stage is K per-VN engines (NV/VS) or one
/// time-shared engine (VM/DVC). Decides both which pipeline::VirtualRouter
/// arrangement the cycle router expects and whether the issue arbiter runs
/// per VN or globally.
[[nodiscard]] constexpr bool separate_engines(VcPolicy policy) noexcept {
  return policy == VcPolicy::kNvStatic || policy == VcPolicy::kVsStatic;
}

struct VcAllocConfig {
  VcPolicy policy = VcPolicy::kVsStatic;
  /// Total virtual channels in the input pool. Static policies require
  /// vc_count >= vn_count (every VN needs at least one VC of its own).
  std::size_t vc_count = 8;
  std::size_t vn_count = 1;
  /// kDynamic only: VCs guaranteed to each VN. A VN below its floor can
  /// always draw from the reserve; other VNs may never consume it.
  /// Requires vn_count * dynamic_floor <= vc_count.
  std::size_t dynamic_floor = 1;
  /// kDynamic only: maximum VCs one VN may hold. 0 = no ceiling (vc_count).
  std::size_t dynamic_ceiling = 0;
};

/// Tracks which VN owns which VC and enforces the policy's sharing rule.
/// Pure bookkeeping state machine — deterministic, lowest-free-index
/// grants — so the conservation invariants (pool size constant, no VC
/// owned twice) are directly checkable by the test layer.
class VcAllocator {
 public:
  /// Owner value of a free VC.
  // narrow-ok: -1 converts to the all-ones VnId (0xffff) on purpose; it
  // is the free-VC sentinel
  static constexpr net::VnId kFree = static_cast<net::VnId>(-1);

  explicit VcAllocator(VcAllocConfig config);

  /// Grants a free VC to `vn` if the policy allows, lowest index first.
  [[nodiscard]] std::optional<std::size_t> allocate(net::VnId vn);

  /// Returns an allocated VC to the pool.
  void release(std::size_t vc);

  /// Owning VN of `vc`, or nullopt when free.
  [[nodiscard]] std::optional<net::VnId> owner(std::size_t vc) const;

  [[nodiscard]] std::size_t free_count() const noexcept {
    return free_count_;
  }
  [[nodiscard]] std::size_t allocated_count() const noexcept {
    return config_.vc_count - free_count_;
  }
  [[nodiscard]] std::size_t allocated_to(net::VnId vn) const;
  [[nodiscard]] std::size_t vc_count() const noexcept {
    return config_.vc_count;
  }
  [[nodiscard]] const VcAllocConfig& config() const noexcept {
    return config_;
  }

  /// Static policies: the VN whose partition VC `vc` belongs to.
  [[nodiscard]] net::VnId static_home(std::size_t vc) const;

  /// Effective per-VN ceiling (resolves the 0 = unlimited convention).
  [[nodiscard]] std::size_t effective_ceiling() const noexcept;

 private:
  VcAllocConfig config_;
  std::vector<net::VnId> owner_;  ///< kFree when unallocated
  std::vector<std::size_t> allocated_per_vn_;
  std::size_t free_count_ = 0;
};

}  // namespace vr::dataplane::cycle
