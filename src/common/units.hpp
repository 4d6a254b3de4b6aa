// Unit conventions, conversion helpers and compile-time quantity types.
//
// Historically the library passed physical quantities as plain doubles with
// the unit encoded in the identifier name (e.g. `power_w`, `freq_mhz`,
// `memory_bits`). That convention now survives only in calibration scalars
// (parameter-struct coefficients annotated `// units-ok`) and in `.cpp`
// intermediates: every power- or frequency-carrying API — the public
// src/power + src/core surface AND the fpga/pipeline/multipipe/tcam
// internals down to the XPE coefficient tables — trades in the strong
// quantity types below, so a mW/W or µW-per-MHz-coefficient confusion is a
// compile error instead of a ±3 %-validation surprise. The conventions are:
//
//   power        watts (W)            — model outputs
//   energy       picojoules (pJ)      — per-cycle accounting in the simulator
//   frequency    megahertz (MHz)      — matches the paper's coefficient units
//   memory       bits                 — BRAM sizing
//   throughput   gigabits/second      — the paper's efficiency denominator
//
// The quantity types are thin constexpr wrappers over their representation:
// construction is explicit, same-unit arithmetic and dimensionless scaling
// are allowed, cross-unit arithmetic exists only where dimensionally
// meaningful (e.g. Picojoules / Cycles * Megahertz -> Microwatts), and
// `.value()` is the escape hatch back to the raw representation for I/O and
// for suffix-convention intermediates. vrlint's `units` check enforces that
// the typed layers (src/power, src/core, src/fpga, src/pipeline,
// src/multipipe, src/tcam) do not reintroduce naked-double power or
// frequency parameters, members or return types, and that `.cpp` locals
// keep their unit suffixes.
#pragma once

#include <compare>
#include <cstdint>
#include <type_traits>

namespace vr::units {

inline constexpr double kMicroPerUnit = 1e6;
inline constexpr double kMilliPerUnit = 1e3;

/// Converts microwatts to watts.
constexpr double uw_to_w(double microwatts) noexcept {
  return microwatts / kMicroPerUnit;
}

/// Converts watts to milliwatts.
constexpr double w_to_mw(double watts) noexcept {
  return watts * kMilliPerUnit;
}

/// Kib/Mib in bits, as used for BRAM capacities ("18 Kb block", "26 Mb").
inline constexpr double kKibit = 1024.0;
inline constexpr double kMibit = 1024.0 * 1024.0;

/// A power coefficient of the form `P(µW) = c · f(MHz)` is numerically equal
/// to an energy of `c` picojoules per clock cycle:
///   P = c·f µW = c·f·1e-6 W; cycles/s = f·1e6; E = P/cycles = c·1e-12 J.
/// This identity lets the cycle-level pipeline simulator account energy with
/// the same coefficients the analytical model uses.
///
/// Average power (W) of `energy_pj` picojoules spent over `cycles` cycles at
/// `freq_mhz` MHz: P = E / t, t = cycles / (f·1e6). A non-positive cycle
/// count or frequency describes a clock-gated (idle) operating point, whose
/// average power is zero — not a division by zero.
constexpr double pj_over_cycles_to_w(double energy_pj, double cycles,
                                     double freq_mhz) noexcept {
  if (cycles <= 0.0 || freq_mhz <= 0.0) return 0.0;
  return energy_pj * 1e-12 / (cycles / (freq_mhz * 1e6));
}

/// Throughput in Gbps of one lookup pipeline issuing one packet per cycle at
/// `freq_mhz` MHz with minimum-size packets of `packet_bytes` bytes.
/// The paper (Sec. VI-B) uses 40-byte packets: Gbps = 0.32 · f(MHz).
constexpr double lookup_throughput_gbps(double freq_mhz,
                                        double packet_bytes) noexcept {
  return freq_mhz * 1e6 * packet_bytes * 8.0 / 1e9;
}

inline constexpr double kMinPacketBytes = 40.0;

// --------------------------------------------------------------------------
// Strong quantity types
// --------------------------------------------------------------------------

/// One physical quantity: a `Rep` tagged with its unit. Same-unit addition
/// and dimensionless scaling only; everything else must go through the
/// explicit conversions / dimensional operators below or through `.value()`.
template <class Tag, class Rep = double>
class Quantity {
 public:
  using rep = Rep;

  constexpr Quantity() noexcept = default;
  explicit constexpr Quantity(Rep value) noexcept : value_(value) {}

  /// Escape hatch to the raw representation (printing, suffix-convention
  /// internals). Deliberately the only way out.
  [[nodiscard]] constexpr Rep value() const noexcept { return value_; }

  constexpr Quantity& operator+=(Quantity other) noexcept {
    value_ += other.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity other) noexcept {
    value_ -= other.value_;
    return *this;
  }
  constexpr Quantity& operator*=(Rep scale) noexcept {
    value_ *= scale;
    return *this;
  }
  constexpr Quantity& operator/=(Rep scale) noexcept {
    value_ /= scale;
    return *this;
  }

  friend constexpr Quantity operator+(Quantity a, Quantity b) noexcept {
    return Quantity{a.value_ + b.value_};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) noexcept {
    return Quantity{a.value_ - b.value_};
  }
  friend constexpr Quantity operator-(Quantity a) noexcept {
    return Quantity{-a.value_};
  }
  friend constexpr Quantity operator*(Quantity q, Rep scale) noexcept {
    return Quantity{q.value_ * scale};
  }
  friend constexpr Quantity operator*(Rep scale, Quantity q) noexcept {
    return Quantity{scale * q.value_};
  }
  friend constexpr Quantity operator/(Quantity q, Rep scale) noexcept {
    return Quantity{q.value_ / scale};
  }
  /// Same-unit ratio is dimensionless.
  friend constexpr Rep operator/(Quantity a, Quantity b) noexcept {
    return a.value_ / b.value_;
  }

  friend constexpr auto operator<=>(Quantity, Quantity) noexcept = default;

 private:
  Rep value_{};
};

struct WattsTag {};
struct MilliwattsTag {};
struct MicrowattsTag {};
struct JoulesTag {};
struct PicojoulesTag {};
struct PjPerCycleTag {};
struct MegahertzTag {};
struct GbpsTag {};
struct MwPerGbpsTag {};
struct CyclesTag {};
struct SecondsTag {};
struct NanosecondsTag {};
struct BitsTag {};

using Watts = Quantity<WattsTag>;
using Milliwatts = Quantity<MilliwattsTag>;
using Microwatts = Quantity<MicrowattsTag>;
using Joules = Quantity<JoulesTag>;
using Picojoules = Quantity<PicojoulesTag>;
using PjPerCycle = Quantity<PjPerCycleTag>;
using Megahertz = Quantity<MegahertzTag>;
using Gbps = Quantity<GbpsTag>;
using MwPerGbps = Quantity<MwPerGbpsTag>;
using Cycles = Quantity<CyclesTag>;
using Seconds = Quantity<SecondsTag>;
using Nanoseconds = Quantity<NanosecondsTag>;
/// Memory sizes are exact bit counts, so Bits carries an integer rep.
using Bits = Quantity<BitsTag, std::uint64_t>;

// ------------------------------------------------------ unit conversions --

[[nodiscard]] constexpr Watts to_watts(Milliwatts mw) noexcept {
  return Watts{mw.value() / kMilliPerUnit};
}
[[nodiscard]] constexpr Watts to_watts(Microwatts uw) noexcept {
  return Watts{uw.value() / kMicroPerUnit};
}
[[nodiscard]] constexpr Milliwatts to_milliwatts(Watts w) noexcept {
  return Milliwatts{w.value() * kMilliPerUnit};
}
[[nodiscard]] constexpr Microwatts to_microwatts(Watts w) noexcept {
  return Microwatts{w.value() * kMicroPerUnit};
}
[[nodiscard]] constexpr double bits_to_kbits(Bits bits) noexcept {
  return static_cast<double>(bits.value()) / kKibit;
}

// -------------------------------------------------- dimensional algebra --

/// Per-cycle energy of a total energy spread over a cycle count.
[[nodiscard]] constexpr PjPerCycle operator/(Picojoules energy,
                                             Cycles cycles) noexcept {
  return PjPerCycle{energy.value() / cycles.value()};
}

/// The µW/MHz ≡ pJ/cycle coefficient identity, now type-checked:
/// P(µW) = c(pJ/cycle) · f(MHz).
[[nodiscard]] constexpr Microwatts operator*(PjPerCycle coefficient,
                                             Megahertz freq) noexcept {
  return Microwatts{coefficient.value() * freq.value()};
}
[[nodiscard]] constexpr Microwatts operator*(Megahertz freq,
                                             PjPerCycle coefficient) noexcept {
  return Microwatts{freq.value() * coefficient.value()};
}

/// The paper's Sec. VI-B efficiency metric: mW of power per Gbps of
/// capacity.
[[nodiscard]] constexpr MwPerGbps operator/(Milliwatts mw,
                                            Gbps throughput) noexcept {
  return MwPerGbps{mw.value() / throughput.value()};
}

/// Total energy of a per-cycle budget sustained for a cycle count.
[[nodiscard]] constexpr Picojoules operator*(PjPerCycle per_cycle,
                                             Cycles cycles) noexcept {
  return Picojoules{per_cycle.value() * cycles.value()};
}
[[nodiscard]] constexpr Picojoules operator*(Cycles cycles,
                                             PjPerCycle per_cycle) noexcept {
  return Picojoules{cycles.value() * per_cycle.value()};
}

/// Energy is power sustained over time: W × s → J.
[[nodiscard]] constexpr Joules operator*(Watts power, Seconds time) noexcept {
  return Joules{power.value() * time.value()};
}
[[nodiscard]] constexpr Joules operator*(Seconds time, Watts power) noexcept {
  return Joules{time.value() * power.value()};
}
/// ... and dividing it back out recovers the average power.
[[nodiscard]] constexpr Watts operator/(Joules energy, Seconds time) noexcept {
  return Watts{energy.value() / time.value()};
}

/// Clock period of a frequency: 1/f(MHz) µs = 1000/f ns. A non-positive
/// frequency (a clock-gated point) has no finite period; report zero so the
/// degenerate case stays inert in downstream arithmetic.
[[nodiscard]] constexpr Nanoseconds period(Megahertz freq) noexcept {
  return freq.value() <= 0.0 ? Nanoseconds{0.0}
                             : Nanoseconds{1e3 / freq.value()};
}

/// Wall-clock duration of a cycle count at a clock: cycles / (f·1e6) s.
/// Clock-gated (non-positive) frequencies yield zero elapsed time.
[[nodiscard]] constexpr Seconds elapsed(Cycles cycles,
                                        Megahertz freq) noexcept {
  return freq.value() <= 0.0
             ? Seconds{0.0}
             : Seconds{cycles.value() / (freq.value() * 1e6)};
}

[[nodiscard]] constexpr Joules to_joules(Picojoules pj) noexcept {
  return Joules{pj.value() * 1e-12};
}
[[nodiscard]] constexpr Picojoules to_picojoules(Joules j) noexcept {
  return Picojoules{j.value() * 1e12};
}

// ------------------------------------------------------- typed helpers --

/// Typed form of `pj_over_cycles_to_w`: Picojoules / Cycles / Megahertz ->
/// Watts, with the same idle-point guards as the raw helper.
[[nodiscard]] constexpr Watts average_power(Picojoules energy, Cycles cycles,
                                            Megahertz freq) noexcept {
  return Watts{pj_over_cycles_to_w(energy.value(), cycles.value(),
                                   freq.value())};
}

/// Typed form of `lookup_throughput_gbps`.
[[nodiscard]] constexpr Gbps lookup_throughput(Megahertz freq,
                                               double packet_bytes) noexcept {
  return Gbps{lookup_throughput_gbps(freq.value(), packet_bytes)};
}

// Compile-time proofs of the dimensional algebra: the result types and a
// few exact identities the power model depends on.
static_assert(std::is_same_v<decltype(PjPerCycle{2.0} * Megahertz{3.0}),
                             Microwatts>);
static_assert((PjPerCycle{2.0} * Megahertz{3.0}).value() == 6.0);
static_assert(std::is_same_v<decltype(PjPerCycle{2.0} * Cycles{4.0}),
                             Picojoules>);
static_assert((Cycles{4.0} * PjPerCycle{2.0}).value() == 8.0);
static_assert(std::is_same_v<decltype(Watts{5.0} * Seconds{2.0}), Joules>);
static_assert((Watts{5.0} * Seconds{2.0}).value() == 10.0);
static_assert(std::is_same_v<decltype(Joules{10.0} / Seconds{2.0}), Watts>);
static_assert((Joules{10.0} / Seconds{2.0}).value() == 5.0);
static_assert(std::is_same_v<decltype(period(Megahertz{250.0})),
                             Nanoseconds>);
static_assert(period(Megahertz{250.0}).value() == 4.0);
static_assert(period(Megahertz{0.0}).value() == 0.0);
static_assert(elapsed(Cycles{4e6}, Megahertz{400.0}).value() == 0.01);
static_assert(elapsed(Cycles{1e6}, Megahertz{0.0}).value() == 0.0);
static_assert(to_joules(Picojoules{1e12}).value() == 1.0);
static_assert(to_picojoules(Joules{1.0}).value() == 1e12);
// Conversion round-trips stay exact for powers of ten and of two.
static_assert(to_watts(to_milliwatts(Watts{4.5})).value() == 4.5);
static_assert(to_watts(Microwatts{1.0}).value() == 1e-6);
static_assert(bits_to_kbits(Bits{18 * 1024}) == 18.0);
static_assert(bits_to_kbits(Bits{512}) == 0.5);

}  // namespace vr::units
