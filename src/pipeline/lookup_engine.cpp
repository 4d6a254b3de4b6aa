#include "pipeline/lookup_engine.hpp"

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace vr::pipeline {

LookupEngine::LookupEngine(TrieView trie, std::size_t stage_count)
    : trie_(trie), ring_(stage_count) {
  VR_REQUIRE(stage_count >= 1, "engine needs at least one stage");
  activity_ = power::ActivityCounters(trie_.vn_count(), stage_count);
  if (trie_.level_count() > stage_count) {
    throw CapacityError("trie of " + std::to_string(trie_.level_count()) +
                        " levels does not fit a " +
                        std::to_string(stage_count) + "-stage engine");
  }
  // One trie level per stage means stage s inspects the address bits of
  // trie level s; a trie deeper than the address width (in levels of
  // `stride` bits each) would read past the last bit.
  if (trie_.level_count() > trie_.max_levels()) {
    throw CapacityError("trie of " + std::to_string(trie_.level_count()) +
                        " levels exceeds the " +
                        std::to_string(trie_.max_levels()) +
                        "-level depth a stride-" +
                        std::to_string(trie_.stride()) +
                        " lookup of a " + std::to_string(kAddressBits) +
                        "-bit address can have");
  }
}

bool LookupEngine::offer(const net::Packet& packet) {
  // Validate before looking at the input slot so malformed packets are
  // rejected even when the engine is busy.
  VR_REQUIRE(packet.vnid < trie_.vn_count(), "packet VNID out of range");
  if (input_.has_value()) {
    ++offers_rejected_;
    return false;
  }
  input_ = packet;
  ++packets_in_;
  return true;
}

void LookupEngine::tick(std::vector<LookupResult>* out) {
  VR_REQUIRE(out != nullptr, "tick needs an output sink");
  // Each lookup in flight does its stage's work: activity lands in the
  // ledger's VN-major matrices at [vnid * stages + stage].
  const std::size_t stages = ring_.size();
  const std::uint64_t now = activity_.cycles;
  std::size_t at = head_;
  for (std::size_t n = 0; n < in_flight_; ++n) {
    InFlight& lookup = ring_[at];
    const std::size_t stage = now - lookup.first_tick;
    const std::size_t cell = lookup.packet.vnid * stages + stage;
    ++activity_.stage_busy[cell];
    if (lookup.node != trie::kNullNode) {
      ++activity_.stage_reads[cell];
      const TrieView::Step step = trie_.step(
          lookup.node, lookup.packet.addr.value(), stage, lookup.packet.vnid);
      if (step.hop != net::kNoRoute) lookup.best = step.hop;
      lookup.node = step.next;
    }
    if (++at == stages) at = 0;
  }
  // The oldest lookup leaves once its last stage is done.
  if (in_flight_ != 0 && now - ring_[head_].first_tick == stages - 1) {
    const InFlight& done = ring_[head_];
    out->push_back(LookupResult{
        now + 1, done.packet,
        done.best == net::kNoRoute ? std::nullopt
                                   : std::optional<net::NextHop>(done.best)});
    ++packets_out_;
    if (++head_ == stages) head_ = 0;
    --in_flight_;
  }
  if (input_.has_value()) {
    std::size_t tail = head_ + in_flight_;
    if (tail >= stages) tail -= stages;
    ring_[tail] = InFlight{now + 1, *input_, /*root*/ 0, net::kNoRoute};
    ++in_flight_;
    input_.reset();
  }
  ++activity_.cycles;
}

bool LookupEngine::drained() const noexcept {
  return !input_.has_value() && in_flight_ == 0;
}

}  // namespace vr::pipeline
