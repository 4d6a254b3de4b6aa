// In-memory span recorder for the traced run. A span is a name, a start,
// an end, the span that was open when it began (its parent) and the id of
// the operation it belongs to (burst, publish, trace or request). Spans
// nest strictly (one thread), so a span's self time — its duration minus
// the time its child spans cover — is exact and is folded into per-name
// totals as each span closes. Span records themselves are kept only up
// to a limit (whole trees: a child is kept only with its parent) and are
// written out as Chrome trace-event JSON when the run ends.
//
// Calls too frequent to keep as spans (one per simulated cycle) are timed
// by the caller and folded in with aggregate(): they count toward the
// totals and the enclosing span's child time, and appear in the timeline
// as one counter event per enclosing operation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace vrbench {

class Tracer {
 public:
  using NameId = std::uint32_t;

  struct Totals {
    std::uint64_t calls = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  /// Span records kept for the timeline (a few MB); totals count every
  /// span.
  static constexpr std::size_t kKeepLimit = 100000;

  /// A disabled tracer records nothing and reads no clock.
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Registers a span name (idempotent); ids index totals().
  NameId name(const std::string& span_name);

  /// RAII span: opens on construction, closes on end() or destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, NameId name, std::uint64_t op);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { end(); }
    /// Closes the span (once) and returns its duration in ns; 0 when the
    /// tracer is disabled or the span already closed.
    double end();

   private:
    Tracer* tracer_;
  };
  [[nodiscard]] Scope span(NameId name, std::uint64_t op) {
    return Scope(enabled_ ? this : nullptr, name, op);
  }

  /// Folds `calls` calls of `name`, `total_ns` in all, into the totals and
  /// into the open span's child time.
  void aggregate(NameId name, std::uint64_t calls, double total_ns);

  [[nodiscard]] const Totals& totals(NameId name) const {
    return totals_[name];
  }
  [[nodiscard]] std::size_t kept_count() const noexcept {
    return kept_.size();
  }

  /// Writes the kept spans as Chrome trace-event JSON (open it in
  /// chrome://tracing or Perfetto). Returns false on an I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Open {
    NameId name = 0;
    Clock::time_point start;
    double child_ns = 0.0;
    std::int64_t kept = -1;  ///< index in kept_, -1 when not kept
  };
  struct Kept {
    NameId name = 0;
    bool aggregate = false;
    double start_ns = 0.0;  ///< since the tracer's epoch
    double dur_ns = 0.0;
    std::int64_t parent = -1;
    std::uint64_t op = 0;      ///< operation id; call count of an aggregate
  };

  void open(NameId name, std::uint64_t op);
  double close();

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
};

}  // namespace vrbench
