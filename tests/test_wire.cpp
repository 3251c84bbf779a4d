#include "core/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "core/error.hpp"

namespace stfw::core {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(Wire, EmptyMessageRoundTrip) {
  PayloadArena arena;
  StageMessage m{0, 1, {}};
  const auto wire = serialize(m.subs, arena);
  EXPECT_EQ(wire.size(), wire_size_bytes(0, 0));
  PayloadArena arena2;
  const auto subs = deserialize(wire, arena2);
  EXPECT_TRUE(subs.empty());
}

TEST(Wire, RoundTripPreservesHeadersAndPayloads) {
  PayloadArena arena;
  StageMessage m{3, 7, {}};
  const auto p1 = bytes_of({1, 2, 3, 4});
  const auto p2 = bytes_of({});
  const auto p3 = bytes_of({0xde, 0xad, 0xbe, 0xef, 0x42});
  m.subs.push_back(Submessage{2, 9, arena.add(p1), 4});
  m.subs.push_back(Submessage{3, 5, arena.add(p2), 0});
  m.subs.push_back(Submessage{11, 9, arena.add(p3), 5});

  const auto wire = serialize(m.subs, arena);
  EXPECT_EQ(wire.size(), wire_size_bytes(3, 9));

  PayloadArena arena2;
  const auto subs = deserialize(wire, arena2);
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0].source, 2);
  EXPECT_EQ(subs[0].dest, 9);
  EXPECT_EQ(subs[1].source, 3);
  EXPECT_EQ(subs[1].dest, 5);
  EXPECT_EQ(subs[2].source, 11);
  EXPECT_EQ(subs[2].dest, 9);
  const auto v1 = arena2.view(subs[0]);
  const auto v3 = arena2.view(subs[2]);
  EXPECT_TRUE(std::equal(v1.begin(), v1.end(), p1.begin(), p1.end()));
  EXPECT_TRUE(std::equal(v3.begin(), v3.end(), p3.begin(), p3.end()));
}

TEST(Wire, RandomizedRoundTrip) {
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int> count_dist(0, 40);
  std::uniform_int_distribution<int> len_dist(0, 64);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int trial = 0; trial < 50; ++trial) {
    PayloadArena arena;
    StageMessage m{1, 2, {}};
    const int count = count_dist(rng);
    std::vector<std::vector<std::byte>> payloads;
    for (int i = 0; i < count; ++i) {
      std::vector<std::byte> p(static_cast<std::size_t>(len_dist(rng)));
      for (auto& b : p) b = static_cast<std::byte>(byte_dist(rng));
      m.subs.push_back(
          Submessage{i, i + 1, arena.add(p), static_cast<std::uint32_t>(p.size())});
      payloads.push_back(std::move(p));
    }
    PayloadArena arena2;
    const auto subs = deserialize(serialize(m.subs, arena), arena2);
    ASSERT_EQ(subs.size(), payloads.size());
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const auto view = arena2.view(subs[i]);
      EXPECT_TRUE(std::equal(view.begin(), view.end(), payloads[i].begin(), payloads[i].end()));
    }
  }
}

TEST(Wire, RejectsTruncatedHeader) {
  const auto wire = bytes_of({1, 0, 0});  // 3 bytes < u32 count
  PayloadArena arena;
  EXPECT_THROW(deserialize(wire, arena), Error);
}

TEST(Wire, RejectsTruncatedPayload) {
  PayloadArena arena;
  StageMessage m{0, 1, {}};
  const auto p = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  m.subs.push_back(Submessage{0, 1, arena.add(p), 8});
  auto wire = serialize(m.subs, arena);
  // erase, not resize(size() - 3): gcc 12 cannot see that size() >= 3 here and
  // flags the shrinking resize with a bogus -Wstringop-overflow under asan.
  wire.erase(wire.end() - 3, wire.end());
  PayloadArena arena2;
  EXPECT_THROW(deserialize(wire, arena2), Error);
}

TEST(Wire, RejectsTrailingGarbage) {
  PayloadArena arena;
  StageMessage m{0, 1, {}};
  auto wire = serialize(m.subs, arena);
  wire.push_back(std::byte{0});
  PayloadArena arena2;
  EXPECT_THROW(deserialize(wire, arena2), Error);
}

TEST(Wire, TrackedRoundTripPreservesIds) {
  PayloadArena arena;
  StageMessage m{3, 7, {}};
  const auto p1 = bytes_of({1, 2, 3, 4});
  const auto p2 = bytes_of({});
  m.subs.push_back(Submessage{2, 9, arena.add(p1), 4, 11});
  m.subs.push_back(Submessage{3, 5, arena.add(p2), 0, 0xffffffffu});
  const auto wire = serialize_tracked(m.subs, arena);
  // The tracked layout costs exactly 4 extra bytes per submessage.
  EXPECT_EQ(wire.size(), wire_size_bytes(2, 4) + 2 * 4);
  PayloadArena arena2;
  const auto subs = deserialize_tracked(wire, arena2);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].source, 2);
  EXPECT_EQ(subs[0].dest, 9);
  EXPECT_EQ(subs[0].id, 11u);
  EXPECT_EQ(subs[1].id, 0xffffffffu);
  const auto v1 = arena2.view(subs[0]);
  EXPECT_TRUE(std::equal(v1.begin(), v1.end(), p1.begin(), p1.end()));
}

TEST(Wire, TrackedRejectsTruncation) {
  PayloadArena arena;
  StageMessage m{0, 1, {}};
  const auto p = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  m.subs.push_back(Submessage{0, 1, arena.add(p), 8, 3});
  auto wire = serialize_tracked(m.subs, arena);
  wire.erase(wire.end() - 3, wire.end());
  PayloadArena arena2;
  EXPECT_THROW(deserialize_tracked(wire, arena2), Error);
}

TEST(Frame, RoundTripPreservesHeaderAndBody) {
  const auto body = bytes_of({10, 20, 30, 40, 50});
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.stage = 3;
  h.epoch = 17;
  h.seq = 12345;
  h.sender = 42;
  const auto wire = encode_frame(h, body);
  EXPECT_EQ(wire.size(), kFrameOverheadBytes + body.size());

  const auto dec = decode_frame(wire);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->header.kind, FrameKind::kData);
  EXPECT_EQ(dec->header.stage, 3);
  EXPECT_EQ(dec->header.epoch, 17u);
  EXPECT_EQ(dec->header.seq, 12345u);
  EXPECT_EQ(dec->header.sender, 42);
  EXPECT_EQ(dec->header.body_len, 5u);
  EXPECT_TRUE(std::equal(dec->body.begin(), dec->body.end(), body.begin(), body.end()));
}

TEST(Frame, EmptyBodyRoundTrip) {
  FrameHeader h;
  h.kind = FrameKind::kAck;
  h.seq = 9;
  h.sender = 1;
  const auto wire = encode_frame(h, {});
  EXPECT_EQ(wire.size(), kFrameOverheadBytes);
  const auto dec = decode_frame(wire);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->header.kind, FrameKind::kAck);
  EXPECT_TRUE(dec->body.empty());
}

TEST(Frame, DetectsTruncationAnywhere) {
  const auto body = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  FrameHeader h;
  h.sender = 0;
  const auto wire = encode_frame(h, body);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::span<const std::byte> prefix(wire.data(), len);
    EXPECT_FALSE(decode_frame(prefix).has_value()) << "accepted a " << len << "-byte prefix";
  }
}

TEST(Frame, DetectsSingleBitCorruptionAnywhere) {
  const auto body = bytes_of({0xaa, 0xbb, 0xcc, 0xdd});
  FrameHeader h;
  h.kind = FrameKind::kDirect;
  h.epoch = 3;
  h.seq = 7;
  h.sender = 5;
  const auto wire = encode_frame(h, body);
  ASSERT_TRUE(decode_frame(wire).has_value());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = wire;
      bad[i] ^= static_cast<std::byte>(1 << bit);
      EXPECT_FALSE(decode_frame(bad).has_value())
          << "accepted a flipped bit " << bit << " at byte " << i;
    }
  }
}

TEST(Frame, RejectsWrongMagicAndBadKind) {
  FrameHeader h;
  h.sender = 0;
  auto wire = encode_frame(h, {});
  auto bad_magic = wire;
  bad_magic[0] = std::byte{0};
  EXPECT_FALSE(decode_frame(bad_magic).has_value());
  // Kind lives at offset 4; an out-of-range value must be rejected even if
  // someone recomputed the checksum over it.
  FrameHeader weird = h;
  weird.kind = static_cast<FrameKind>(99);
  EXPECT_FALSE(decode_frame(encode_frame(weird, {})).has_value());
}

TEST(Frame, ChecksumCoversHeaderNotJustBody) {
  // Two frames with identical bodies but different seq must have different
  // checksums — otherwise a reordered wire buffer could impersonate another
  // frame.
  const auto body = bytes_of({1, 2, 3});
  FrameHeader a;
  a.seq = 1;
  a.sender = 0;
  FrameHeader b = a;
  b.seq = 2;
  const auto wa = encode_frame(a, body);
  const auto wb = encode_frame(b, body);
  const std::span<const std::byte> ca(wa.data() + 28, 8);
  const std::span<const std::byte> cb(wb.data() + 28, 8);
  EXPECT_FALSE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()));
}

TEST(Frame, MemberEpochRoundTripsAndIsChecksummed) {
  const auto body = bytes_of({9, 8, 7});
  FrameHeader h;
  h.kind = FrameKind::kRelay;
  h.stage = 1;
  h.epoch = 4;
  h.member_epoch = 6;
  h.seq = 11;
  h.sender = 2;
  const auto wire = encode_frame(h, body);
  const auto dec = decode_frame(wire);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->header.kind, FrameKind::kRelay);
  EXPECT_EQ(dec->header.member_epoch, 6u);

  // Two frames differing only in membership claim must differ in checksum:
  // a stale frame cannot be patched into a fresh one without re-signing.
  FrameHeader h2 = h;
  h2.member_epoch = 7;
  const auto wire2 = encode_frame(h2, body);
  const std::span<const std::byte> ca(wire.data() + 28, 8);
  const std::span<const std::byte> cb(wire2.data() + 28, 8);
  EXPECT_FALSE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()));
}

TEST(Frame, RestampMemberEpochKeepsFrameDecodable) {
  const auto body = bytes_of({1, 2, 3, 4});
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.stage = 2;
  h.epoch = 5;
  h.member_epoch = 1;
  h.seq = 33;
  h.sender = 6;
  auto wire = encode_frame(h, body);
  restamp_member_epoch(wire, 9);
  const auto dec = decode_frame(wire);
  ASSERT_TRUE(dec.has_value()) << "restamp must recompute the checksum";
  EXPECT_EQ(dec->header.member_epoch, 9u);
  EXPECT_EQ(dec->header.kind, FrameKind::kData);
  EXPECT_EQ(dec->header.stage, 2);
  EXPECT_EQ(dec->header.epoch, 5u);
  EXPECT_EQ(dec->header.seq, 33u);
  EXPECT_EQ(dec->header.sender, 6);
  EXPECT_TRUE(std::equal(dec->body.begin(), dec->body.end(), body.begin(), body.end()));
  EXPECT_EQ(wire, encode_frame([&] {
              FrameHeader fresh = h;
              fresh.member_epoch = 9;
              return fresh;
            }(), body))
      << "restamping must be byte-identical to encoding with the new epoch";
}

TEST(FailureNoticeCodec, RoundTripsDeadList) {
  const std::vector<std::int32_t> dead{3, 7, 11};
  const auto body = encode_failure_notice(42, dead);
  const auto notice = decode_failure_notice(body);
  ASSERT_TRUE(notice.has_value());
  EXPECT_EQ(notice->membership_epoch, 42u);
  EXPECT_EQ(notice->dead, dead);

  const auto empty = decode_failure_notice(encode_failure_notice(1, {}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->membership_epoch, 1u);
  EXPECT_TRUE(empty->dead.empty());
}

TEST(FailureNoticeCodec, RejectsTruncationAndTrailingGarbage) {
  const std::vector<std::int32_t> dead{0, 2};
  const auto body = encode_failure_notice(5, dead);
  for (std::size_t len = 0; len < body.size(); ++len) {
    const std::span<const std::byte> prefix(body.data(), len);
    EXPECT_FALSE(decode_failure_notice(prefix).has_value())
        << "accepted a " << len << "-byte prefix";
  }
  auto padded = body;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_failure_notice(padded).has_value());
}

TEST(FailureNoticeCodec, RejectsOverstatedDeadCount) {
  // A notice claiming more dead ranks than the bytes it carries must be
  // dropped, not read past the end.
  auto body = encode_failure_notice(3, std::vector<std::int32_t>{1});
  body[4] = std::byte{0xff};  // dead_count lives at offset 4
  body[5] = std::byte{0xff};
  EXPECT_FALSE(decode_failure_notice(body).has_value());
}

TEST(Frame, ChecksumDigestIsStable) {
  // Reference XXH64 digests (seed 0): the checksum is part of the wire
  // format, so any change to it must show up here.
  EXPECT_EQ(frame_checksum({}), 0xef46db3751d8e999ull);
  EXPECT_EQ(frame_checksum(bytes_of({'a', 'b', 'c'})), 0x44bc2cf5ad770999ull);
  std::vector<std::byte> pattern(1024);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = static_cast<std::byte>((i * 31 + 7) & 0xff);
  const std::uint64_t digest = frame_checksum(pattern);
  EXPECT_EQ(digest, 0x149aa44972cdae00ull);

  // Word order matters: swapping two distinct 8-byte words changes the digest.
  auto swapped = pattern;
  std::swap_ranges(swapped.begin() + 8, swapped.begin() + 16, swapped.begin() + 504);
  ASSERT_NE(swapped, pattern);
  EXPECT_NE(frame_checksum(swapped), digest);

  // So does length: a trailing zero byte is not absorbed.
  auto longer = pattern;
  longer.push_back(std::byte{0});
  EXPECT_NE(frame_checksum(longer), digest);
}

TEST(Frame, TrackedFrameMatchesEncodingTheSerializedBody) {
  PayloadArena arena;
  std::vector<Submessage> subs;
  for (std::uint32_t i = 0; i < 5; ++i) {
    std::vector<std::byte> payload(i * 37);
    for (std::size_t b = 0; b < payload.size(); ++b) payload[b] = static_cast<std::byte>(b + i);
    Submessage s{static_cast<Rank>(i), static_cast<Rank>(7 - i), arena.add(payload),
                 static_cast<std::uint32_t>(payload.size())};
    s.id = 100 + i;
    subs.push_back(s);
  }
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.stage = 1;
  h.epoch = 3;
  h.member_epoch = 2;
  h.seq = 44;
  h.sender = 5;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, subs.size()}) {
    const std::span<const Submessage> part(subs.data(), n);
    const auto wire = encode_tracked_frame(h, part, arena);
    EXPECT_EQ(wire, encode_frame(h, serialize_tracked(part, arena))) << n << " submessages";
    EXPECT_EQ(wire.capacity(), wire.size()) << "one buffer of exactly the frame's size";
    ASSERT_TRUE(decode_frame(wire).has_value());
  }
}

TEST(PayloadArenaTest, ViewsRemainValidAcrossAdds) {
  PayloadArena arena;
  const auto p1 = bytes_of({1, 2, 3});
  const Submessage s1{0, 1, arena.add(p1), 3};
  for (int i = 0; i < 1000; ++i) arena.add(p1);
  const auto view = arena.view(s1);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), p1.begin(), p1.end()));
  EXPECT_EQ(arena.size_bytes(), 3u * 1001u);
}

}  // namespace
}  // namespace stfw::core
