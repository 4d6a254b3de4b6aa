// Fixture: narrowing check (src/trie is lookup-critical). Expected: three
// narrowing findings (the unguarded cast, the cast under a reason-less
// tag — a bare tag suppresses nothing — and the unguarded cast to a
// namespace-qualified index type) plus one annotations finding on the bare
// tag itself. The checked_* helper and the justified cast are clean.

#include <cstdint>

namespace vr::trie {

using NodeIndex = std::uint32_t;

NodeIndex checked_fixture_index(std::uint64_t value) {
  return static_cast<NodeIndex>(value);  // clean: inside a checked_* helper
}

std::uint16_t fixture_bad(std::uint64_t value) {
  return static_cast<std::uint16_t>(value);  // FINDING: unguarded
}

std::uint16_t fixture_bare_tag(std::uint64_t value) {
  // narrow-ok
  return static_cast<std::uint16_t>(value);  // FINDING: tag has no reason
}

std::uint8_t fixture_justified(std::uint64_t value) {
  // narrow-ok: the fixture value is masked to one byte first
  return static_cast<std::uint8_t>(value & 0xff);
}

NodeIndex fixture_qualified(std::uint64_t value) {
  return static_cast<trie::NodeIndex>(value);  // FINDING: qualified type
}

}  // namespace vr::trie
