#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace vrbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

Tracer::NameId Tracer::name(const std::string& span_name) {
  const auto it = std::find(names_.begin(), names_.end(), span_name);
  if (it != names_.end()) {
    return static_cast<NameId>(it - names_.begin());
  }
  names_.push_back(span_name);
  totals_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

Tracer::Scope::Scope(Tracer* tracer, NameId name, std::uint64_t op)
    : tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->open(name, op);
}

double Tracer::Scope::end() {
  if (tracer_ == nullptr) return 0.0;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  return tracer->close();
}

void Tracer::open(NameId name, std::uint64_t op) {
  Open frame;
  frame.name = name;
  const bool parent_kept = stack_.empty() || stack_.back().kept >= 0;
  if (parent_kept && kept_.size() < kKeepLimit) {
    Kept record;
    record.name = name;
    record.parent = stack_.empty() ? -1 : stack_.back().kept;
    record.op = op;
    frame.kept = static_cast<std::int64_t>(kept_.size());
    kept_.push_back(record);
  }
  stack_.push_back(frame);
  // Read the clock last so the bookkeeping above is not billed to the
  // span.
  stack_.back().start = Clock::now();
}

double Tracer::close() {
  const auto now = Clock::now();
  const Open frame = stack_.back();
  stack_.pop_back();
  const double dur = ns_between(frame.start, now);
  Totals& totals = totals_[frame.name];
  ++totals.calls;
  totals.total_ns += dur;
  totals.self_ns += dur - frame.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (frame.kept >= 0) {
    Kept& record = kept_[static_cast<std::size_t>(frame.kept)];
    record.start_ns = ns_between(epoch_, frame.start);
    record.dur_ns = dur;
  }
  return dur;
}

void Tracer::aggregate(NameId name, std::uint64_t calls, double total_ns) {
  if (!enabled_) return;
  Totals& totals = totals_[name];
  totals.calls += calls;
  totals.total_ns += total_ns;
  totals.self_ns += total_ns;
  if (stack_.empty()) return;
  stack_.back().child_ns += total_ns;
  if (stack_.back().kept >= 0 && kept_.size() < kKeepLimit) {
    Kept record;
    record.name = name;
    record.aggregate = true;
    record.start_ns = ns_between(epoch_, Clock::now());
    record.dur_ns = total_ns;
    record.parent = stack_.back().kept;
    record.op = calls;
    kept_.push_back(record);
  }
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out.precision(12);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    out << (i > 0 ? ",\n" : "") << "{\"name\": \"" << names_[k.name]
        << "\", \"pid\": 1, \"tid\": 1, \"ts\": " << k.start_ns / 1000.0;
    if (k.aggregate) {
      // Aggregated calls have no single interval: a counter event at the
      // moment they were folded in carries their count and total time.
      out << ", \"ph\": \"C\", \"args\": {\"calls\": " << k.op
          << ", \"total_ns\": " << k.dur_ns << "}}";
    } else {
      out << ", \"ph\": \"X\", \"dur\": " << k.dur_ns / 1000.0
          << ", \"args\": {\"op\": " << k.op << ", \"span\": " << i
          << ", \"parent\": " << k.parent << "}}";
    }
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace vrbench
