#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>

#include "common/rng.hpp"
#include "dataplane/full_router.hpp"
#include "netbase/packet.hpp"
#include "obs/metrics.hpp"
#include "netbase/table_gen.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::dataplane {
namespace {

using net::Ipv4;
using net::Ipv4Header;
using net::RoutingTable;

// ----------------------------------------------------------------- packet --

TEST(Ipv4HeaderTest, SerializeParseRoundTrip) {
  Ipv4Header header;
  header.dscp = 0x28;
  header.total_length = 60;
  header.identification = 0xbeef;
  header.ttl = 17;
  header.protocol = 6;
  header.source = Ipv4(192, 0, 2, 1);
  header.destination = Ipv4(198, 51, 100, 7);
  header.checksum = header.compute_checksum();
  const auto bytes = header.serialize();
  const auto parsed = Ipv4Header::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dscp, header.dscp);
  EXPECT_EQ(parsed->total_length, header.total_length);
  EXPECT_EQ(parsed->identification, header.identification);
  EXPECT_EQ(parsed->ttl, header.ttl);
  EXPECT_EQ(parsed->protocol, header.protocol);
  EXPECT_EQ(parsed->source, header.source);
  EXPECT_EQ(parsed->destination, header.destination);
  EXPECT_TRUE(parsed->verify_checksum());
}

TEST(Ipv4HeaderTest, KnownChecksumVector) {
  // Classic worked example (en.wikipedia.org/wiki/IPv4_header_checksum):
  // 45 00 00 73 00 00 40 00 40 11 <sum> c0 a8 00 01 c0 a8 00 c7
  // has header checksum 0xb861.
  const std::uint8_t raw[] = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40,
                              0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
                              0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7};
  EXPECT_EQ(net::internet_checksum(raw), 0xb861);
}

TEST(Ipv4HeaderTest, ChecksumDetectsCorruption) {
  Ipv4Header header;
  header.source = Ipv4(10, 0, 0, 1);
  header.destination = Ipv4(10, 0, 0, 2);
  header.checksum = header.compute_checksum();
  EXPECT_TRUE(header.verify_checksum());
  header.ttl ^= 0x01;
  EXPECT_FALSE(header.verify_checksum());
}

TEST(Ipv4HeaderTest, ParseRejectsBadInput) {
  std::array<std::uint8_t, 20> bytes{};
  bytes[0] = 0x46;  // IHL 6: options unsupported
  EXPECT_FALSE(Ipv4Header::parse(bytes).has_value());
  bytes[0] = 0x45;
  EXPECT_FALSE(
      Ipv4Header::parse(std::span(bytes).first(19)).has_value());
  // total_length below the header size is invalid.
  bytes[2] = 0;
  bytes[3] = 10;
  EXPECT_FALSE(Ipv4Header::parse(bytes).has_value());
}

TEST(Ipv4HeaderTest, IncrementalTtlChecksumMatchesFullRecompute) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    Ipv4Header header;
    header.dscp = static_cast<std::uint8_t>(rng.next_below(64) << 2);
    header.total_length =
        static_cast<std::uint16_t>(20 + rng.next_below(1480));
    header.identification = static_cast<std::uint16_t>(rng.next_u64());
    header.ttl = static_cast<std::uint8_t>(rng.next_in(1, 255));
    header.protocol = static_cast<std::uint8_t>(rng.next_below(256));
    header.source = Ipv4(static_cast<std::uint32_t>(rng.next_u64()));
    header.destination = Ipv4(static_cast<std::uint32_t>(rng.next_u64()));
    header.checksum = header.compute_checksum();
    ASSERT_TRUE(header.decrement_ttl());
    EXPECT_EQ(header.checksum, header.compute_checksum())
        << "ttl now " << int{header.ttl};
  }
}

TEST(Ipv4HeaderTest, DecrementAtZeroRefuses) {
  Ipv4Header header;
  header.ttl = 0;
  EXPECT_FALSE(header.decrement_ttl());
  EXPECT_EQ(header.ttl, 0);
}

// ----------------------------------------------------------------- parser --

TEST(ParserTest, AcceptsValidFrames) {
  Parser parser(/*vn_count=*/4);
  Ipv4Header header;
  header.ttl = 10;
  header.source = Ipv4(10, 0, 0, 1);
  header.destination = Ipv4(10, 0, 0, 2);
  header.checksum = header.compute_checksum();
  const auto parsed = parser.accept(2, header, 40);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->vnid, 2);
  EXPECT_EQ(parser.stats().accepted, 1u);
}

TEST(ParserTest, DropsBadChecksum) {
  Parser parser(/*vn_count=*/4);
  Ipv4Header header;
  header.ttl = 10;
  header.checksum = static_cast<std::uint16_t>(
      header.compute_checksum() ^ 0x1);
  EXPECT_FALSE(parser.accept(0, header, 20).has_value());
  EXPECT_EQ(parser.stats().bad_checksum, 1u);
}

TEST(ParserTest, DropsExpiringTtl) {
  Parser parser(/*vn_count=*/4);
  for (const std::uint8_t ttl : {std::uint8_t{0}, std::uint8_t{1}}) {
    Ipv4Header header;
    header.ttl = ttl;
    header.checksum = header.compute_checksum();
    EXPECT_FALSE(parser.accept(0, header, 20).has_value());
  }
  EXPECT_EQ(parser.stats().ttl_expired, 2u);
}

TEST(ParserTest, TruncatedBuffersAreMalformedAtEveryLength) {
  Parser parser(/*vn_count=*/4);
  Ipv4Header header;
  header.ttl = 9;
  const auto bytes = header.serialize_with_checksum();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(parser.parse(0, std::span(bytes).first(len)).has_value());
  }
  EXPECT_EQ(parser.stats().malformed, bytes.size());
  EXPECT_EQ(parser.stats().accepted, 0u);
}

TEST(ParserTest, ParseFromBytes) {
  Parser parser(/*vn_count=*/4);
  Ipv4Header header;
  header.ttl = 33;
  header.total_length = 60;
  const auto bytes = header.serialize_with_checksum();
  const auto parsed = parser.parse(1, bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload_bytes, 40);
  // Truncated buffer -> malformed.
  EXPECT_FALSE(parser.parse(1, std::span(bytes).first(8)).has_value());
  EXPECT_EQ(parser.stats().malformed, 1u);
}

TEST(ParserTest, DropsVnidsOutsideTheRouter) {
  Parser parser(/*vn_count=*/3);
  Ipv4Header header;
  header.ttl = 10;
  header.checksum = header.compute_checksum();
  EXPECT_TRUE(parser.accept(2, header, 40).has_value());
  EXPECT_FALSE(parser.accept(3, header, 40).has_value());
  const auto bytes = header.serialize_with_checksum();
  EXPECT_FALSE(parser.parse(11, bytes).has_value());
  // The VNID is checked first: a bad one is never also malformed.
  EXPECT_FALSE(parser.parse(0xffff, std::span(bytes).first(8)).has_value());
  EXPECT_EQ(parser.stats().bad_vnid, 3u);
  EXPECT_EQ(parser.stats().malformed, 0u);
  EXPECT_EQ(parser.stats().accepted, 1u);
  EXPECT_EQ(parser.stats().dropped(), 3u);
}

/// Writes an RFC 1071 checksum into wire bytes 10-11 of the 20-byte header
/// that starts `bytes`. With `cover_flags` false it is computed as if bytes
/// 6-7 (flags, fragment offset) were zero: the header of a sender that
/// leaves them out, or one whose flags word changed in flight.
void write_checksum(std::span<std::uint8_t> bytes, bool cover_flags) {
  std::array<std::uint8_t, Ipv4Header::kSize> header{};
  std::copy_n(bytes.begin(), header.size(), header.begin());
  header[10] = 0;
  header[11] = 0;
  if (!cover_flags) {
    header[6] = 0;
    header[7] = 0;
  }
  const std::uint16_t sum = net::internet_checksum(header);
  bytes[10] = static_cast<std::uint8_t>(sum >> 8);
  bytes[11] = static_cast<std::uint8_t>(sum & 0xff);
}

/// Whether the parser must forward `bytes`: version 4 with IHL 5, a zero
/// RFC 1071 sum over the 20 header bytes, a total length that covers the
/// header, and TTL >= 2.
bool forwardable(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < Ipv4Header::kSize || bytes[0] != 0x45) return false;
  const unsigned total_length = (unsigned{bytes[2]} << 8) | bytes[3];
  return net::internet_checksum(bytes.first(Ipv4Header::kSize)) == 0 &&
         total_length >= Ipv4Header::kSize && bytes[8] >= 2;
}

// Regression: Ipv4Header::parse skipped wire bytes 6-7 (flags, fragment
// offset) and serialize() wrote zeros there, so the checksum never covered
// them: 16 of the 160 single-bit flips of a valid header were forwarded.
TEST(ParserTest, DropsEverySingleBitFlip) {
  static_assert(sizeof(Ipv4Header) == Ipv4Header::kSize);
  Rng rng(20);
  Parser parser(/*vn_count=*/1);
  std::uint64_t flips = 0;
  for (int h = 0; h < 300; ++h) {
    std::array<std::uint8_t, Ipv4Header::kSize> valid{};
    for (std::uint8_t& b : valid) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    const std::uint64_t total_length = rng.next_in(Ipv4Header::kSize, 1500);
    valid[0] = 0x45;
    valid[2] = static_cast<std::uint8_t>(total_length >> 8);
    valid[3] = static_cast<std::uint8_t>(total_length & 0xff);
    valid[8] = static_cast<std::uint8_t>(rng.next_in(2, 255));
    if (h % 2 == 0) {
      // Half carry a zero flags word, as generated frames do.
      valid[6] = 0;
      valid[7] = 0;
    }
    write_checksum(valid, /*cover_flags=*/true);
    ASSERT_TRUE(forwardable(valid)) << "header " << h;
    ASSERT_TRUE(parser.parse(0, valid).has_value()) << "header " << h;
    for (std::size_t bit = 0; bit < 8 * valid.size(); ++bit) {
      auto flipped = valid;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(parser.parse(0, flipped).has_value())
          << "header " << h << " byte " << bit / 8 << " bit " << bit % 8;
      ++flips;
    }
  }
  EXPECT_EQ(parser.stats().accepted, 300u);
  EXPECT_EQ(parser.stats().dropped(), flips);
}

// Arbitrary bytes: 100,000 seeded strings of 0-40 bytes, half of them
// starting 0x45. A quarter of those of 20+ bytes carry a valid checksum
// and another quarter one that leaves out bytes 6-7. Parsing never
// crashes, and a string is forwarded exactly when it is a well-formed
// header whose 20 wire bytes sum to zero.
TEST(ParserTest, ArbitraryBytesNeverPassABadChecksum) {
  Rng rng(21);
  Parser parser(/*vn_count=*/1);
  std::vector<std::uint8_t> bytes;
  std::uint64_t expected_accepted = 0;
  for (int i = 0; i < 100000; ++i) {
    bytes.resize(rng.next_below(41));
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    if (!bytes.empty() && i % 2 == 0) bytes[0] = 0x45;
    if (bytes.size() >= Ipv4Header::kSize && i % 4 == 0) {
      write_checksum(bytes, /*cover_flags=*/i % 8 == 0);
    }
    const bool expected = forwardable(bytes);
    expected_accepted += expected ? 1 : 0;
    EXPECT_EQ(parser.parse(0, bytes).has_value(), expected)
        << "string " << i << " of " << bytes.size() << " bytes";
  }
  EXPECT_EQ(parser.stats().accepted, expected_accepted);
  EXPECT_GT(expected_accepted, 1000u);
  EXPECT_EQ(parser.stats().accepted + parser.stats().dropped(), 100000u);
}

// ----------------------------------------------------------------- editor --

TEST(EditorTest, ForwardsAndRewrites) {
  Editor editor;
  ParsedPacket packet;
  packet.vnid = 1;
  packet.header.ttl = 9;
  packet.header.checksum = packet.header.compute_checksum();
  const auto forwarded = editor.edit(packet, net::NextHop{5});
  ASSERT_TRUE(forwarded.has_value());
  EXPECT_EQ(forwarded->port, 5);
  EXPECT_EQ(forwarded->header.ttl, 8);
  EXPECT_TRUE(forwarded->header.verify_checksum());
  EXPECT_EQ(editor.stats().forwarded, 1u);
}

TEST(EditorTest, DropsNoRoute) {
  Editor editor;
  ParsedPacket packet;
  packet.header.ttl = 9;
  EXPECT_FALSE(editor.edit(packet, std::nullopt).has_value());
  EXPECT_EQ(editor.stats().no_route, 1u);
}

TEST(EditorTest, DropsOnTtlExpiry) {
  // The parser refuses TTL <= 1 on arrival, but the editor must still hold
  // the line for packets injected past it: TTL 0 cannot decrement, TTL 1
  // decrements to 0 — both expire at the editor, neither is forwarded.
  Editor editor;
  for (const std::uint8_t ttl : {std::uint8_t{0}, std::uint8_t{1}}) {
    ParsedPacket packet;
    packet.header.ttl = ttl;
    packet.header.checksum = packet.header.compute_checksum();
    EXPECT_FALSE(editor.edit(packet, net::NextHop{3}).has_value());
  }
  EXPECT_EQ(editor.stats().ttl_expired, 2u);
  EXPECT_EQ(editor.stats().forwarded, 0u);
}

// -------------------------------------------------------------- scheduler --

SchedulerConfig two_vn_config() {
  SchedulerConfig config;
  config.port_count = 1;
  config.vn_count = 2;
  config.bytes_per_cycle = 40.0;
  return config;
}

ForwardedPacket make_packet(net::VnId vn, std::uint16_t payload,
                            net::NextHop port = 0) {
  ForwardedPacket packet;
  packet.vnid = vn;
  packet.port = port;
  packet.payload_bytes = payload;
  return packet;
}

TEST(SchedulerTest, TransmitsWithinLinkRate) {
  DrrScheduler scheduler(two_vn_config());
  std::vector<EgressRecord> egress;
  for (int i = 0; i < 50; ++i) {
    scheduler.enqueue(make_packet(0, 20), 0);  // 40 B frames
  }
  for (std::uint64_t c = 0; c < 25; ++c) scheduler.tick(c, &egress);
  // 40 B/cycle link, 40 B packets: one per cycle (+1 from initial credit).
  EXPECT_LE(egress.size(), 27u);
  EXPECT_GE(egress.size(), 24u);
}

TEST(SchedulerTest, EqualWeightsShareTheLink) {
  DrrScheduler scheduler(two_vn_config());
  std::vector<EgressRecord> egress;
  for (std::uint64_t c = 0; c < 4000; ++c) {
    // Keep both VN queues backlogged.
    scheduler.enqueue(make_packet(0, 20), c);
    scheduler.enqueue(make_packet(1, 20), c);
    scheduler.tick(c, &egress);
  }
  const auto& stats = scheduler.stats();
  const double total = static_cast<double>(stats.bytes_per_vn[0] +
                                           stats.bytes_per_vn[1]);
  EXPECT_NEAR(static_cast<double>(stats.bytes_per_vn[0]) / total, 0.5,
              0.05);
}

TEST(SchedulerTest, WeightsSkewTheShare) {
  SchedulerConfig config = two_vn_config();
  config.vn_weights = {3.0, 1.0};
  config.queue_capacity = 256;
  DrrScheduler scheduler(config);
  std::vector<EgressRecord> egress;
  for (std::uint64_t c = 0; c < 6000; ++c) {
    scheduler.enqueue(make_packet(0, 20), c);
    scheduler.enqueue(make_packet(1, 20), c);
    scheduler.tick(c, &egress);
  }
  const auto& stats = scheduler.stats();
  const double total = static_cast<double>(stats.bytes_per_vn[0] +
                                           stats.bytes_per_vn[1]);
  EXPECT_NEAR(static_cast<double>(stats.bytes_per_vn[0]) / total, 0.75,
              0.06);
}

TEST(SchedulerTest, DrrIsByteFairAcrossPacketSizes) {
  // VN0 sends large packets, VN1 small ones; DRR equalizes BYTES, not
  // packet counts.
  SchedulerConfig config = two_vn_config();
  config.queue_capacity = 512;
  DrrScheduler scheduler(config);
  std::vector<EgressRecord> egress;
  for (std::uint64_t c = 0; c < 8000; ++c) {
    scheduler.enqueue(make_packet(0, 1480), c);
    scheduler.enqueue(make_packet(1, 20), c);
    scheduler.enqueue(make_packet(1, 20), c);
    scheduler.tick(c, &egress);
  }
  const auto& stats = scheduler.stats();
  const double ratio = static_cast<double>(stats.bytes_per_vn[0]) /
                       static_cast<double>(stats.bytes_per_vn[1]);
  EXPECT_NEAR(ratio, 1.0, 0.15);
}

TEST(SchedulerTest, TailDropsWhenFull) {
  SchedulerConfig config = two_vn_config();
  config.queue_capacity = 4;
  DrrScheduler scheduler(config);
  for (int i = 0; i < 10; ++i) {
    scheduler.enqueue(make_packet(0, 20), 0);
  }
  EXPECT_EQ(scheduler.stats().tail_drops, 6u);
  EXPECT_EQ(scheduler.queue_depth(0, 0), 4u);
}

TEST(SchedulerTest, PacketsRouteToTheirPort) {
  SchedulerConfig config;
  config.port_count = 4;
  config.vn_count = 1;
  DrrScheduler scheduler(config);
  std::vector<EgressRecord> egress;
  scheduler.enqueue(make_packet(0, 20, 2), 0);
  scheduler.tick(0, &egress);
  ASSERT_EQ(egress.size(), 1u);
  EXPECT_EQ(egress[0].port, 2);
}

TEST(SchedulerTest, OutOfRangePortAborts) {
  // Regression: enqueue used to alias port % port_count, silently crediting
  // a wiring bug's traffic (and DRR share) to an unrelated port.
  SchedulerConfig config;
  config.port_count = 4;
  config.vn_count = 1;
  DrrScheduler scheduler(config);
  EXPECT_DEATH((void)scheduler.enqueue(make_packet(0, 20, 4), 0),
               "egress port out of range");
  EXPECT_DEATH((void)scheduler.enqueue(make_packet(0, 20, 200), 0),
               "egress port out of range");
}

TEST(SchedulerTest, CountsBeyondSixteenBitIdsAbort) {
  // tick() reports VN and port indices as 16-bit VnId and NextHop values.
  SchedulerConfig config;
  config.port_count = 1;
  config.vn_count = 0x10000;
  EXPECT_DEATH((void)DrrScheduler(config), "VNID width");
  config.vn_count = 1;
  config.port_count = 0x10000;
  EXPECT_DEATH((void)DrrScheduler(config), "next-hop width");
}

TEST(SchedulerTest, RejectedCountsTailDrops) {
  SchedulerConfig config = two_vn_config();
  config.queue_capacity = 4;
  DrrScheduler scheduler(config);
  for (int i = 0; i < 10; ++i) {
    scheduler.enqueue(make_packet(0, 20), 0);
  }
  EXPECT_EQ(scheduler.stats().tail_drops, 6u);
  EXPECT_EQ(scheduler.stats().rejected, 6u);
}

TEST(SchedulerTest, SaturationResolvesBackpressurePerVn) {
  SchedulerConfig config = two_vn_config();
  config.queue_capacity = 4;
  DrrScheduler scheduler(config);
  // VN 0 floods a 4-deep queue (6 of 10 drop); VN 1 stays inside its own
  // queue — its backpressure counter must not pick up the neighbor's drops.
  for (int i = 0; i < 10; ++i) scheduler.enqueue(make_packet(0, 20), 0);
  for (int i = 0; i < 3; ++i) scheduler.enqueue(make_packet(1, 20), 0);
  const auto& stats = scheduler.stats();
  ASSERT_EQ(stats.tail_drops_per_vn.size(), 2u);
  EXPECT_EQ(stats.tail_drops_per_vn[0], 6u);
  EXPECT_EQ(stats.tail_drops_per_vn[1], 0u);
  EXPECT_EQ(stats.tail_drops_per_vn[0] + stats.tail_drops_per_vn[1],
            stats.tail_drops);

  // Drain. Both VNs queued traffic, so both earn DRR grants, and the
  // accepted packets all make it out.
  std::vector<EgressRecord> egress;
  for (std::uint64_t c = 0; !scheduler.empty(); ++c) {
    scheduler.tick(c, &egress);
  }
  ASSERT_EQ(stats.arbiter_grants_per_vn.size(), 2u);
  EXPECT_GT(stats.arbiter_grants_per_vn[0], 0u);
  EXPECT_GT(stats.arbiter_grants_per_vn[1], 0u);
  EXPECT_EQ(egress.size(), 7u);
}

TEST(SchedulerTest, HistogramsTrackDepthAndWait) {
  DrrScheduler scheduler(two_vn_config());
  std::vector<EgressRecord> egress;
  for (int i = 0; i < 3; ++i) {
    scheduler.enqueue(make_packet(0, 20), 0);
  }
  for (std::uint64_t c = 0; c < 10 && !scheduler.empty(); ++c) {
    scheduler.tick(c, &egress);
  }
  // Depths observed after each accepted enqueue: 1, 2, 3.
  const obs::HistogramSnapshot depth = scheduler.queue_depth_histogram();
  EXPECT_EQ(depth.count(), 3u);
  EXPECT_DOUBLE_EQ(depth.stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(depth.stats.max(), 3.0);
  // One wait sample per transmitted packet, bounded by the records.
  const obs::HistogramSnapshot wait = scheduler.egress_wait_histogram();
  ASSERT_EQ(wait.count(), egress.size());
  for (const EgressRecord& record : egress) {
    EXPECT_LE(wait.stats.min(), static_cast<double>(record.queueing_cycles));
    EXPECT_GE(wait.stats.max(), static_cast<double>(record.queueing_cycles));
  }
}

SchedulerConfig sixteen_port_config(double bytes_per_cycle) {
  SchedulerConfig config;
  config.port_count = 16;
  config.vn_count = 4;
  config.bytes_per_cycle = bytes_per_cycle;
  return config;
}

TEST(SchedulerTest, IdlePortsExamineEveryQueueOncePerCycle) {
  // With nothing queued, ticking idle ports, fast and slow, grants and
  // sends nothing.
  constexpr std::uint64_t kTicks = 10;
  std::vector<EgressRecord> egress;
  DrrScheduler fast(sixteen_port_config(40.0));
  for (std::uint64_t c = 0; c < kTicks; ++c) fast.tick(c, &egress);
  DrrScheduler slow(sixteen_port_config(0.4));
  for (std::uint64_t c = 0; c < kTicks; ++c) slow.tick(c, &egress);

  for (const DrrScheduler* scheduler : {&fast, &slow}) {
    EXPECT_TRUE(scheduler->empty());
    EXPECT_EQ(scheduler->stats().arbiter_grants_per_vn,
              std::vector<std::uint64_t>(4, 0));
    EXPECT_EQ(scheduler->stats().transmitted, 0u);
  }
  EXPECT_TRUE(egress.empty());
}

/// FNV-1a over the little-endian bytes of 64-bit words.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::vector<std::uint64_t>& words) {
    for (const std::uint64_t word : words) add(word);
  }
  /// Every field of every egress record, in order.
  void add(const std::vector<EgressRecord>& egress) {
    for (const EgressRecord& record : egress) {
      add(record.cycle);
      add(record.vnid);
      add(record.port);
      add(record.bytes);
      add(record.queueing_cycles);
    }
  }
  /// Count, sum, min, max and buckets, the doubles by their bits.
  void add(const obs::HistogramSnapshot& histogram) {
    add(histogram.count());
    add(std::bit_cast<std::uint64_t>(histogram.stats.sum()));
    add(std::bit_cast<std::uint64_t>(histogram.stats.min()));
    add(std::bit_cast<std::uint64_t>(histogram.stats.max()));
    for (const std::uint64_t bucket : histogram.buckets) add(bucket);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t egress_digest(const std::vector<EgressRecord>& egress) {
  Fnv1a digest;
  digest.add(egress);
  return digest.value();
}

/// Drives a seeded sparse stream through a 16-port, K = 4 scheduler:
/// bursts of 40 cycles on a few hot ports every 700 cycles, and long idle
/// gaps in between with a trickle on random ports, until every queue
/// drains.
std::vector<EgressRecord> run_sparse_stream(DrrScheduler* scheduler,
                                            std::uint16_t max_payload,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<EgressRecord> egress;
  constexpr std::uint64_t kStreamCycles = 6000;
  std::uint64_t cycle = 0;
  for (; cycle < kStreamCycles; ++cycle) {
    const bool burst = cycle % 700 < 40;
    const std::uint64_t arrivals =
        burst ? rng.next_below(3) : (rng.next_bool(0.004) ? 1 : 0);
    for (std::uint64_t i = 0; i < arrivals; ++i) {
      // narrow-ok in test: vn < 4, payload <= max_payload, port < 16
      const auto vn = static_cast<net::VnId>(rng.next_below(4));
      const auto payload =
          static_cast<std::uint16_t>(rng.next_in(20, max_payload));
      const auto port = static_cast<net::NextHop>(
          burst ? rng.next_below(3) : rng.next_below(16));
      (void)scheduler->enqueue(make_packet(vn, payload, port), cycle);
    }
    scheduler->tick(cycle, &egress);
  }
  for (; !scheduler->empty(); ++cycle) scheduler->tick(cycle, &egress);
  return egress;
}

TEST(SchedulerTest, SparseStreamMatchesRecordedAccounting) {
  // Every count of two seeded sparse runs, recorded once and pinned: a
  // change to how tick() handles idle ports, the DRR cursor or the link
  // credit shows up here as a different number.
  SchedulerConfig fast_config = sixteen_port_config(12.5);
  fast_config.vn_weights = {1.0, 2.0, 1.0, 3.0};
  fast_config.queue_capacity = 8;
  DrrScheduler fast(fast_config);
  const std::vector<EgressRecord> fast_egress =
      run_sparse_stream(&fast, 1480, 0x5ca1ab1e);
  const SchedulerStats& f = fast.stats();
  EXPECT_EQ(f.enqueued, 370u);
  EXPECT_EQ(f.transmitted, 370u);
  EXPECT_EQ(f.tail_drops, 36u);
  EXPECT_EQ(f.rejected, 36u);
  EXPECT_EQ(f.bytes_per_vn,
            (std::vector<std::uint64_t>{70603, 68776, 59226, 79609}));
  EXPECT_EQ(f.tail_drops_per_vn, (std::vector<std::uint64_t>{10, 0, 25, 1}));
  EXPECT_EQ(f.arbiter_grants_per_vn,
            (std::vector<std::uint64_t>{57, 38, 46, 30}));
  EXPECT_EQ(fast_egress.size(), 370u);
  EXPECT_EQ(egress_digest(fast_egress), 4144214614973827555u);

  // A link under one byte per cycle: a port that just transmitted sits
  // below one byte of credit for several idle cycles.
  SchedulerConfig slow_config = sixteen_port_config(0.4);
  slow_config.queue_capacity = 4;
  DrrScheduler slow(slow_config);
  const std::vector<EgressRecord> slow_egress =
      run_sparse_stream(&slow, 30, 0xd15ea5e);
  const SchedulerStats& s = slow.stats();
  EXPECT_EQ(s.enqueued, 217u);
  EXPECT_EQ(s.transmitted, 217u);
  EXPECT_EQ(s.tail_drops, 186u);
  EXPECT_EQ(s.rejected, 186u);
  EXPECT_EQ(s.bytes_per_vn,
            (std::vector<std::uint64_t>{2215, 2713, 2359, 2423}));
  EXPECT_EQ(s.tail_drops_per_vn,
            (std::vector<std::uint64_t>{53, 47, 39, 47}));
  EXPECT_EQ(s.arbiter_grants_per_vn,
            (std::vector<std::uint64_t>{14, 16, 18, 13}));
  EXPECT_EQ(slow_egress.size(), 217u);
  EXPECT_EQ(egress_digest(slow_egress), 16664119719912718142u);
}

// ------------------------------------------------------------- frame gen --

class FrameGenFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net::TableProfile profile;
    profile.prefix_count = 200;
    const net::SyntheticTableGenerator gen(profile);
    for (std::uint64_t v = 0; v < 3; ++v) {
      tables_.push_back(gen.generate(30 + v));
    }
    for (const auto& t : tables_) ptrs_.push_back(&t);
  }
  std::vector<RoutingTable> tables_;
  std::vector<const RoutingTable*> ptrs_;
};

TEST_F(FrameGenFixture, ValidFramesHaveGoodChecksums) {
  FrameGenConfig config;
  config.traffic.cycles = 3000;
  const FrameGenerator gen(config, ptrs_);
  for (const IngressFrame& frame : gen.generate(1)) {
    EXPECT_TRUE(frame.header.verify_checksum());
    EXPECT_GE(frame.header.ttl, 2);
    EXPECT_TRUE(
        tables_[frame.vnid].lookup(frame.header.destination).has_value());
  }
}

TEST_F(FrameGenFixture, OversizedPayloadIsRejected) {
  // A payload above kMaxPayloadBytes would wrap the 16-bit total_length
  // wire field; the constructor must reject it instead of emitting frames
  // whose length field silently disagrees with the payload.
  FrameGenConfig config;
  config.traffic.cycles = 100;
  config.payload_sizes = {kMaxPayloadBytes};
  config.payload_weights = {1.0};
  EXPECT_NO_FATAL_FAILURE(FrameGenerator(config, ptrs_));
  config.payload_sizes = {static_cast<std::uint16_t>(kMaxPayloadBytes + 1)};
  EXPECT_DEATH(FrameGenerator(config, ptrs_),
               "payload size overflows the 16-bit total_length field");
}

TEST_F(FrameGenFixture, CorruptFractionProducesBadChecksums) {
  FrameGenConfig config;
  config.traffic.cycles = 6000;
  config.corrupt_fraction = 0.2;
  const FrameGenerator gen(config, ptrs_);
  const auto frames = gen.generate(2);
  std::size_t bad = 0;
  for (const IngressFrame& frame : frames) {
    if (!frame.header.verify_checksum()) ++bad;
  }
  EXPECT_NEAR(static_cast<double>(bad) / static_cast<double>(frames.size()),
              0.2, 0.03);
}

TEST_F(FrameGenFixture, SameSeedReproducesIdenticalFrames) {
  FrameGenConfig config;
  config.traffic.cycles = 2000;
  const FrameGenerator gen(config, ptrs_);
  const auto first = gen.generate(7);
  const auto second = gen.generate(7);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].cycle, second[i].cycle);
    EXPECT_EQ(first[i].vnid, second[i].vnid);
    EXPECT_EQ(first[i].payload_bytes, second[i].payload_bytes);
    EXPECT_EQ(first[i].header.serialize(), second[i].header.serialize());
  }
}

TEST_F(FrameGenFixture, DeriveSeedDecorrelatesNearbySalts) {
  // Scenario seeds are structured (base + small index); derive_seed must
  // spread them so per-run streams are independent, not near-duplicates.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t salt = 0; salt < 64; ++salt) {
    seeds.insert(FrameGenerator::derive_seed(17, salt));
    seeds.insert(FrameGenerator::derive_seed(18, salt));
  }
  EXPECT_EQ(seeds.size(), 128u);

  FrameGenConfig config;
  config.traffic.cycles = 2000;
  const FrameGenerator gen(config, ptrs_);
  const auto a = gen.generate(FrameGenerator::derive_seed(17, 0));
  const auto b = gen.generate(FrameGenerator::derive_seed(17, 1));
  // Adjacent salts must yield different traffic, not a shifted copy.
  std::size_t same = 0;
  const std::size_t n = std::min(a.size(), b.size());
  ASSERT_GT(n, 100u);
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].cycle == b[i].cycle &&
        a[i].header.destination == b[i].header.destination) {
      ++same;
    }
  }
  EXPECT_LT(static_cast<double>(same) / static_cast<double>(n), 0.01);
}

TEST_F(FrameGenFixture, PinnedGoldenFrameSequence) {
  // Frozen first frames of (tables seeds 30..32, prefix_count 200,
  // cycles 2000, seed 7). Any diff means the generator's RNG stream
  // discipline changed and every seeded experiment silently re-rolled —
  // regenerate these constants only with an intentional break, and say so
  // in the commit.
  FrameGenConfig config;
  config.traffic.cycles = 2000;
  const FrameGenerator gen(config, ptrs_);
  const auto frames = gen.generate(7);
  struct GoldenFrame {
    std::size_t index;
    std::uint64_t cycle;
    net::VnId vnid;
    std::uint16_t payload_bytes;
    std::uint32_t destination;
    std::uint32_t source;
    std::uint8_t ttl;
    std::uint16_t checksum;
  };
  const GoldenFrame golden[] = {
      {0, 0u, 0, 20, 0xe1fb6152u, 0x4099b97cu, 35, 0x5a4a},
      {1, 1u, 0, 20, 0xe1f8730du, 0x297ad4eeu, 55, 0x304e},
      {2, 2u, 1, 20, 0x85291721u, 0x1407f516u, 23, 0xfe4b},
      {3, 3u, 0, 20, 0x4382b03bu, 0x82c20b9fu, 57, 0xffa3},
      {1999, 1999u, 2, 20, 0x041659edu, 0x98be6544u, 23, 0x3fd9},
  };
  ASSERT_EQ(frames.size(), 2000u);
  for (const GoldenFrame& g : golden) {
    const IngressFrame& f = frames[g.index];
    SCOPED_TRACE(g.index);
    EXPECT_EQ(f.cycle, g.cycle);
    EXPECT_EQ(f.vnid, g.vnid);
    EXPECT_EQ(f.payload_bytes, g.payload_bytes);
    EXPECT_EQ(f.header.destination.value(), g.destination);
    EXPECT_EQ(f.header.source.value(), g.source);
    EXPECT_EQ(f.header.ttl, g.ttl);
    EXPECT_EQ(f.header.checksum, g.checksum);
    EXPECT_TRUE(f.header.verify_checksum());
  }
}

// ------------------------------------------------------------ full router --

class FullRouterFixture : public FrameGenFixture {
 protected:
  void SetUp() override {
    FrameGenFixture::SetUp();
    for (const auto& t : tables_) {
      tries_.emplace_back(trie::UnibitTrie(t).leaf_pushed());
    }
    for (const auto& t : tries_) {
      views_.emplace_back(t);
      trie_ptrs_.push_back(&t);
    }
  }

  FullRouterConfig router_config() const {
    FullRouterConfig config;
    config.scheduler.vn_count = 3;
    config.scheduler.port_count = 16;
    config.scheduler.queue_capacity = 256;
    return config;
  }

  std::vector<trie::UnibitTrie> tries_;
  std::vector<pipeline::TrieView> views_;
  std::vector<const trie::UnibitTrie*> trie_ptrs_;
};

TEST_F(FullRouterFixture, ConservesPackets) {
  FrameGenConfig config;
  config.traffic.cycles = 5000;
  config.traffic.load = 0.5;
  config.corrupt_fraction = 0.05;
  config.expiring_ttl_fraction = 0.05;
  const FrameGenerator gen(config, ptrs_);
  const auto frames = gen.generate(3);

  pipeline::SeparateRouter lookup(views_, 28);
  const FullRouterResult result =
      run_full_router(lookup, frames, router_config());

  // Every frame is accounted for: parser drops + editor drops + scheduler
  // drops + transmitted == offered.
  EXPECT_EQ(result.parser.accepted + result.parser.dropped(), frames.size());
  EXPECT_EQ(result.editor.forwarded + result.editor.no_route +
                result.editor.ttl_expired,
            result.parser.accepted);
  EXPECT_EQ(result.scheduler.transmitted + result.scheduler.tail_drops,
            result.editor.forwarded);
  EXPECT_GT(result.parser.dropped(), 0u);      // corruption present
  EXPECT_EQ(result.editor.no_route, 0u);       // all lookups hit
  EXPECT_EQ(result.egress.size(), result.scheduler.transmitted);
  // The observability snapshots agree with the counters: one depth sample
  // per accepted enqueue, one wait sample per transmitted packet.
  EXPECT_EQ(result.queue_depths.count(), result.scheduler.enqueued);
  EXPECT_EQ(result.egress_wait.count(), result.scheduler.transmitted);
}

TEST_F(FullRouterFixture, EgressTtlDecrementedAndChecksumsValid) {
  FrameGenConfig config;
  config.traffic.cycles = 1500;
  const FrameGenerator gen(config, ptrs_);
  pipeline::SeparateRouter lookup(views_, 28);
  const FullRouterResult result =
      run_full_router(lookup, gen.generate(4), router_config());
  EXPECT_GT(result.egress.size(), 0u);
}

TEST_F(FullRouterFixture, MergedAndSeparateForwardTheSameTraffic) {
  FrameGenConfig config;
  config.traffic.cycles = 4000;
  config.traffic.load = 0.6;
  const FrameGenerator gen(config, ptrs_);
  const auto frames = gen.generate(5);

  pipeline::SeparateRouter separate(views_, 28);
  const FullRouterResult separate_result =
      run_full_router(separate, frames, router_config());

  const virt::MergedTrie merged{
      std::span<const trie::UnibitTrie* const>(trie_ptrs_)};
  pipeline::MergedRouter merged_lookup(merged, 28);
  const FullRouterResult merged_result =
      run_full_router(merged_lookup, frames, router_config());

  // Transparency: both data planes transmit the same per-VN byte volumes.
  EXPECT_EQ(separate_result.scheduler.bytes_per_vn,
            merged_result.scheduler.bytes_per_vn);
  EXPECT_EQ(separate_result.scheduler.transmitted,
            merged_result.scheduler.transmitted);
}

TEST_F(FullRouterFixture, QosSharesFollowTrafficShares) {
  FrameGenConfig config;
  config.traffic.cycles = 20000;
  config.traffic.load = 0.6;
  config.traffic.vn_weights = {2.0, 1.0, 1.0};
  const FrameGenerator gen(config, ptrs_);
  pipeline::SeparateRouter lookup(views_, 28);
  const FullRouterResult result =
      run_full_router(lookup, gen.generate(6), router_config());
  const auto shares = result.goodput_shares();
  EXPECT_NEAR(shares[0], 0.5, 0.05);
  EXPECT_NEAR(shares[1], 0.25, 0.04);
}

// ------------------------------------------------ recorded full-router runs --

/// FNV-1a over every field of a run's result.
std::uint64_t result_digest(const FullRouterResult& result) {
  Fnv1a digest;
  digest.add(result.egress);
  const ParserStats& parser = result.parser;
  for (const std::uint64_t count :
       {parser.accepted, parser.malformed, parser.bad_checksum,
        parser.ttl_expired, parser.bad_vnid, result.editor.forwarded,
        result.editor.no_route, result.editor.ttl_expired}) {
    digest.add(count);
  }
  const SchedulerStats& scheduler = result.scheduler;
  for (const std::uint64_t count :
       {scheduler.enqueued, scheduler.transmitted, scheduler.tail_drops,
        scheduler.rejected}) {
    digest.add(count);
  }
  digest.add(scheduler.bytes_per_vn);
  digest.add(scheduler.tail_drops_per_vn);
  digest.add(scheduler.arbiter_grants_per_vn);
  digest.add(result.cycles);
  digest.add(result.max_lookup_queue);
  digest.add(result.queue_depths);
  digest.add(result.egress_wait);
  const power::ActivityCounters& activity = result.activity;
  digest.add(activity.cycles);
  for (const std::vector<std::uint64_t>* column :
       {&activity.parser_headers, &activity.buffer_writes,
        &activity.buffer_reads, &activity.crossbar_traversals,
        &activity.arbiter_decisions, &activity.editor_rewrites,
        &activity.stage_busy, &activity.stage_reads}) {
    digest.add(*column);
  }
  return digest.value();
}

/// One kind of seeded stream for the recorded runs.
struct StreamKind {
  double load = 0.0;
  /// Arrival cycles are divided by this: 2-4 frames a cycle back up the
  /// one-lookup-per-cycle pipe.
  std::uint64_t squeeze = 1;
  double corrupt = 0.0;       ///< parser drop: bad checksum
  double expiring_ttl = 0.0;  ///< parser drop: TTL <= 1
  double bad_vnid = 0.0;      ///< parser drop: VNID names no VN
  double random_dst = 0.0;    ///< destinations drawn from no table
  /// Dropped frames arriving long after everything else has drained.
  std::size_t trailing_drops = 0;
};

// Every field of the per-packet router's result (egress timing, drops,
// cycle count, histograms and the activity ledger), recorded for a
// separate and a merged lookup over seven seeded stream kinds. A change
// to when a packet is parsed, looked up, edited, queued or sent moves a
// digest.
TEST_F(FullRouterFixture, EveryResultFieldMatchesRecordedDigests) {
  const StreamKind kinds[] = {
      {.load = 0.5},
      {.load = 1.0, .squeeze = 2, .corrupt = 0.03, .expiring_ttl = 0.03,
       .bad_vnid = 0.03, .random_dst = 0.03},
      {.load = 1.0, .squeeze = 4},
      {.load = 0.8, .corrupt = 0.05, .expiring_ttl = 0.05, .bad_vnid = 0.05,
       .random_dst = 0.05},
      {.load = 1.0, .squeeze = 3, .corrupt = 0.05, .expiring_ttl = 0.05,
       .bad_vnid = 0.05, .random_dst = 0.05, .trailing_drops = 40},
      {.load = 0.4, .trailing_drops = 25},
      {.load = 0.6, .squeeze = 2, .bad_vnid = 1.0, .trailing_drops = 10},
  };
  // {separate, merged} per kind.
  const std::uint64_t recorded[][2] = {
      {5456797297231146571u, 5456797297231146571u},
      {1964472526070426354u, 17008536502211379663u},
      {13928114366323779255u, 9553844112761226021u},
      {12822505749648476406u, 13680507835291996994u},
      {3109569271880831840u, 14983713126812499224u},
      {1688027248899955098u, 1688027248899955098u},
      {942502631049089409u, 942502631049089409u},
  };
  FullRouterConfig config = router_config();
  config.scheduler.queue_capacity = 16;
  config.scheduler.vn_weights = {1.0, 2.0, 1.5};
  const virt::MergedTrie merged{
      std::span<const trie::UnibitTrie* const>(trie_ptrs_)};

  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    const StreamKind& kind = kinds[k];
    FrameGenConfig gen_config;
    gen_config.traffic.cycles = 3000;
    gen_config.traffic.load = kind.load;
    gen_config.traffic.vn_weights = {3.0, 1.0, 2.0};
    gen_config.corrupt_fraction = kind.corrupt;
    gen_config.expiring_ttl_fraction = kind.expiring_ttl;
    std::vector<IngressFrame> frames =
        FrameGenerator(gen_config, ptrs_).generate(100 + k);
    ASSERT_FALSE(frames.empty());
    Rng rng(200 + k);
    for (IngressFrame& frame : frames) {
      frame.cycle /= kind.squeeze;
      if (rng.next_bool(kind.bad_vnid)) {
        // narrow-ok in test: 3 + [0, 4] fits a VnId
        frame.vnid = static_cast<net::VnId>(3 + rng.next_below(5));
      } else if (rng.next_bool(kind.random_dst)) {
        frame.header.destination =
            Ipv4(static_cast<std::uint32_t>(rng.next_u64()));
        frame.header.checksum = frame.header.compute_checksum();
      }
    }
    const std::uint64_t late = frames.back().cycle + 9000;
    for (std::size_t i = 0; i < kind.trailing_drops; ++i) {
      IngressFrame frame = frames[i];
      frame.cycle = late + 7 * i;
      if (i % 2 == 0) {
        frame.vnid = 3;
      } else {
        frame.header.checksum ^= 0x5a5a;
      }
      frames.push_back(frame);
    }

    pipeline::SeparateRouter separate(views_, 28);
    const FullRouterResult separate_result =
        run_full_router(separate, frames, config);
    pipeline::MergedRouter merged_lookup(merged, 28);
    const FullRouterResult merged_result =
        run_full_router(merged_lookup, frames, config);
    EXPECT_EQ(separate_result.parser.accepted +
                  separate_result.parser.dropped(),
              frames.size());
    EXPECT_EQ(result_digest(separate_result), recorded[k][0])
        << "kind " << k << " separate, " << separate_result.cycles
        << " cycles, max lookup queue " << separate_result.max_lookup_queue;
    EXPECT_EQ(result_digest(merged_result), recorded[k][1])
        << "kind " << k << " merged, " << merged_result.cycles
        << " cycles, max lookup queue " << merged_result.max_lookup_queue;
  }
}

}  // namespace
}  // namespace vr::dataplane
