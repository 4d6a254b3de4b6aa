#include "pipeline/lookup_engine.hpp"

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace vr::pipeline {

LookupEngine::LookupEngine(TrieView trie, std::size_t stage_count)
    : trie_(trie), slots_(stage_count) {
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
  // Process stages back-to-front so each packet advances exactly one stage
  // per cycle. Activity lands in the ledger's VN-major matrices at
  // [vnid * stages + s].
  const std::size_t stages = slots_.size();
  // Stage `stages-1` completes this cycle.
  {
    Slot& last = slots_[stages - 1];
    if (last.valid) {
      const std::size_t cell = last.packet.vnid * stages + stages - 1;
      // Perform the final stage's work first (it may still need its read).
      if (last.node != trie::kNullNode) {
        ++activity_.stage_reads[cell];
        const TrieView::Step step =
            trie_.step(last.node, last.packet.addr.value(), stages - 1,
                       last.packet.vnid);
        if (step.hop != net::kNoRoute) last.best = step.hop;
      }
      ++activity_.stage_busy[cell];
      LookupResult result;
      result.exit_cycle = activity_.cycles + 1;
      result.packet = last.packet;
      result.next_hop = last.best == net::kNoRoute
                            ? std::nullopt
                            : std::optional<net::NextHop>(last.best);
      out->push_back(result);
      ++packets_out_;
      last.valid = false;
    }
  }
  for (std::size_t s = stages - 1; s-- > 0;) {
    Slot& slot = slots_[s];
    if (!slot.valid) continue;
    const std::size_t cell = slot.packet.vnid * stages + s;
    ++activity_.stage_busy[cell];
    // Advance in place: do this stage's read/branch directly on the slot,
    // then move it forward (no full copy-then-overwrite per stage).
    if (slot.node != trie::kNullNode) {
      ++activity_.stage_reads[cell];
      const TrieView::Step step = trie_.step(
          slot.node, slot.packet.addr.value(), s, slot.packet.vnid);
      if (step.hop != net::kNoRoute) slot.best = step.hop;
      slot.node = step.next;
    }
    slots_[s + 1] = std::move(slot);
    slot.valid = false;
  }
  if (input_.has_value()) {
    Slot& first = slots_[0];
    first.valid = true;
    first.packet = *input_;
    first.node = 0;  // root
    first.best = net::kNoRoute;
    input_.reset();
  }
  ++activity_.cycles;
}

bool LookupEngine::drained() const noexcept {
  if (input_.has_value()) return false;
  for (const Slot& slot : slots_) {
    if (slot.valid) return false;
  }
  return true;
}

}  // namespace vr::pipeline
