// Property/fuzz tests of the wire formats (ISSUE 4 satellite). Run under the
// asan-ubsan preset these double as memory-safety proofs: every single-byte
// mutation of a checksummed frame must be rejected, and no mutation of any
// wire image — frame or plain — may read out of bounds or crash.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <vector>

#include "core/buffer_pool.hpp"
#include "core/error.hpp"
#include "core/exchange_plan.hpp"
#include "core/message.hpp"
#include "core/vpt.hpp"
#include "core/wire.hpp"
#include "runtime/exchange_plan.hpp"

namespace stfw::core {
namespace {

std::vector<std::byte> random_body(std::mt19937_64& rng, std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::vector<std::byte> body(len_dist(rng));
  for (std::byte& b : body) b = static_cast<std::byte>(byte_dist(rng));
  return body;
}

FrameHeader random_header(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> kind_dist(1, 6);  // kData..kFailureNotice
  std::uniform_int_distribution<std::uint32_t> u32_dist;
  FrameHeader h;
  h.kind = static_cast<FrameKind>(kind_dist(rng));
  h.stage = static_cast<std::uint16_t>(u32_dist(rng) & 0xffff);
  h.epoch = u32_dist(rng);
  h.member_epoch = u32_dist(rng);
  h.seq = u32_dist(rng);
  h.sender = static_cast<std::int32_t>(u32_dist(rng) & 0x7fffffff);
  return h;
}

TEST(WireFuzz, RandomFramesRoundTripLosslessly) {
  std::mt19937_64 rng(20190717);
  for (int trial = 0; trial < 200; ++trial) {
    const FrameHeader h = random_header(rng);
    const auto body = random_body(rng, 256);
    const auto wire = encode_frame(h, body);
    ASSERT_EQ(wire.size(), kFrameOverheadBytes + body.size());

    const auto decoded = decode_frame(wire);
    ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
    EXPECT_EQ(decoded->header.kind, h.kind);
    EXPECT_EQ(decoded->header.stage, h.stage);
    EXPECT_EQ(decoded->header.epoch, h.epoch);
    EXPECT_EQ(decoded->header.member_epoch, h.member_epoch);
    EXPECT_EQ(decoded->header.seq, h.seq);
    EXPECT_EQ(decoded->header.sender, h.sender);
    EXPECT_EQ(decoded->header.body_len, body.size());
    EXPECT_TRUE(std::equal(decoded->body.begin(), decoded->body.end(), body.begin(), body.end()));
  }
}

TEST(WireFuzz, EverySingleByteMutationIsRejected) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const FrameHeader h = random_header(rng);
    const auto body = random_body(rng, 48);
    const auto wire = encode_frame(h, body);
    for (std::size_t pos = 0; pos < wire.size(); ++pos) {
      for (int delta = 1; delta < 256; ++delta) {
        auto mutated = wire;
        mutated[pos] = static_cast<std::byte>(static_cast<int>(mutated[pos]) ^ delta);
        // The checksum covers every header field and the whole body, so any
        // single-byte change — including of the checksum itself — must read
        // as corruption.
        EXPECT_FALSE(decode_frame(mutated).has_value())
            << "mutation at byte " << pos << " xor " << delta << " was accepted";
      }
    }
  }
}

TEST(WireFuzz, EveryTruncationPrefixIsRejected) {
  std::mt19937_64 rng(11);
  const FrameHeader h = random_header(rng);
  const auto body = random_body(rng, 64);
  const auto wire = encode_frame(h, body);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::vector<std::byte> prefix(wire.begin(),
                                        wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(decode_frame(prefix).has_value()) << "prefix of " << len << " bytes accepted";
  }
  // Trailing garbage beyond body_len is equally a framing violation.
  auto padded = wire;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_frame(padded).has_value());
}

TEST(WireFuzz, LargeFrameMutationsAreRejected) {
  // Bodies long enough for every path of the checksum: 4099 = 128 32-byte
  // stripes through the four lanes + a 3-byte tail; 4127 = the same stripes
  // + three 8-byte tail words + a 4-byte word + a 3-byte tail.
  std::mt19937_64 rng(4099);
  const FrameHeader h = random_header(rng);
  for (const std::size_t body_len : {std::size_t{4099}, std::size_t{4127}}) {
    std::vector<std::byte> body(body_len);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    for (std::byte& b : body) b = static_cast<std::byte>(byte_dist(rng));
    const auto wire = encode_frame(h, body);
    ASSERT_TRUE(decode_frame(wire).has_value());

    auto mutated = wire;
    for (std::size_t pos = 0; pos < wire.size(); ++pos) {
      for (const int delta : {0x01, 0x80, 0x5a, 0xff}) {
        mutated[pos] = wire[pos] ^ static_cast<std::byte>(delta);
        EXPECT_FALSE(decode_frame(mutated).has_value())
            << body_len << "-byte body: xor " << delta << " at byte " << pos << " accepted";
      }
      mutated[pos] = wire[pos];
    }

    // Every bit of the bytes on either side of each 8-byte word boundary of
    // the body, where a lane or word load could be misaligned by one.
    for (std::size_t off = 8; off < body_len; off += 8) {
      for (const std::size_t pos : {kFrameOverheadBytes + off - 1, kFrameOverheadBytes + off}) {
        for (int bit = 0; bit < 8; ++bit) {
          mutated[pos] = wire[pos] ^ static_cast<std::byte>(1 << bit);
          EXPECT_FALSE(decode_frame(mutated).has_value())
              << body_len << "-byte body: bit " << bit << " at byte " << pos << " accepted";
          mutated[pos] = wire[pos];
        }
      }
    }

    // Truncation at every 8-byte (and so every 32-byte) boundary of the body,
    // both as a bare prefix and with body_len patched to agree, so the
    // checksum rather than the length check has to catch it.
    for (std::size_t kept = 0; kept < body_len; kept += 8) {
      std::vector<std::byte> prefix(
          wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(kFrameOverheadBytes + kept));
      EXPECT_FALSE(decode_frame(prefix).has_value()) << kept << "-byte body prefix accepted";
      const auto claimed = static_cast<std::uint32_t>(kept);
      std::memcpy(prefix.data() + 24, &claimed, sizeof(claimed));  // body_len at offset 24
      EXPECT_FALSE(decode_frame(prefix).has_value())
          << kept << "-byte body prefix with a matching body_len accepted";
    }
  }
}

TEST(WireFuzz, RandomGarbageNeverCrashesFrameDecode) {
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int trial = 0; trial < 500; ++trial) {
    auto garbage = random_body(rng, 128);
    // Half the trials start with the real magic so decode exercises the
    // deeper header/checksum checks instead of bailing on byte 0.
    if (trial % 2 == 0 && garbage.size() >= 4) {
      garbage[0] = static_cast<std::byte>(kFrameMagic & 0xff);
      garbage[1] = static_cast<std::byte>((kFrameMagic >> 8) & 0xff);
      garbage[2] = static_cast<std::byte>((kFrameMagic >> 16) & 0xff);
      garbage[3] = static_cast<std::byte>((kFrameMagic >> 24) & 0xff);
    }
    (void)decode_frame(garbage);  // must not crash or read OOB; result is moot
  }
}

/// One random plain-format stage message (the paper's unchecksummed wire
/// image) with its serialized bytes.
std::vector<std::byte> random_stage_wire(std::mt19937_64& rng, bool tracked) {
  std::uniform_int_distribution<int> count_dist(0, 12);
  std::uniform_int_distribution<int> rank_dist(0, 1 << 20);
  PayloadArena arena;
  StageMessage m{rank_dist(rng), rank_dist(rng), {}};
  const int count = count_dist(rng);
  for (int i = 0; i < count; ++i) {
    const auto payload = random_body(rng, 40);
    Submessage s;
    s.source = rank_dist(rng);
    s.dest = rank_dist(rng);
    s.offset = arena.add(payload);
    s.size_bytes = static_cast<std::uint32_t>(payload.size());
    s.id = static_cast<std::uint32_t>(i);
    m.subs.push_back(s);
  }
  return tracked ? serialize_tracked(m.subs, arena) : serialize(m.subs, arena);
}

/// The plain format has no checksum: a mutation may legitimately decode (it
/// changed a rank id or a payload byte), but it must never read out of
/// bounds, crash, or produce submessages pointing outside the arena.
TEST(WireFuzz, MutatedStageMessagesDecodeSafelyOrThrow) {
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<int> byte_dist(1, 255);
  for (const bool tracked : {false, true}) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto wire = random_stage_wire(rng, tracked);
      for (std::size_t pos = 0; pos < wire.size(); ++pos) {
        auto mutated = wire;
        mutated[pos] =
            static_cast<std::byte>(static_cast<int>(mutated[pos]) ^ byte_dist(rng));
        PayloadArena arena;
        try {
          const auto subs =
              tracked ? deserialize_tracked(mutated, arena) : deserialize(mutated, arena);
          for (const Submessage& s : subs) {
            ASSERT_LE(s.offset + s.size_bytes, arena.size_bytes())
                << "submessage points outside the arena";
          }
        } catch (const Error&) {
          // Malformed counts/lengths are rejected loudly — equally fine.
        }
      }
    }
  }
}

/// A random failure-notice body (the kFailureNotice payload). Dead ranks are
/// arbitrary ints — the codec promises bounds safety, not semantic checks.
std::vector<std::byte> random_notice(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::uint32_t> u32_dist;
  std::uniform_int_distribution<int> count_dist(0, 16);
  std::uniform_int_distribution<int> rank_dist(0, 1 << 24);
  std::vector<std::int32_t> dead(static_cast<std::size_t>(count_dist(rng)));
  for (std::int32_t& r : dead) r = rank_dist(rng);
  return encode_failure_notice(u32_dist(rng), dead);
}

TEST(WireFuzz, FailureNoticesRoundTripLosslessly) {
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<std::uint32_t> u32_dist;
  std::uniform_int_distribution<int> count_dist(0, 16);
  std::uniform_int_distribution<int> rank_dist(0, 1 << 24);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t epoch = u32_dist(rng);
    std::vector<std::int32_t> dead(static_cast<std::size_t>(count_dist(rng)));
    for (std::int32_t& r : dead) r = rank_dist(rng);
    const auto notice = decode_failure_notice(encode_failure_notice(epoch, dead));
    ASSERT_TRUE(notice.has_value()) << "trial " << trial;
    EXPECT_EQ(notice->membership_epoch, epoch);
    EXPECT_EQ(notice->dead, dead);
  }
}

/// The notice body rides inside a checksummed frame, but a survivor must not
/// depend on that: a corrupt notice reaching the codec is dropped, never a
/// crash or an out-of-bounds read (ISSUE 7 satellite — asan/ubsan presets
/// turn any violation into a hard failure).
TEST(WireFuzz, MutatedFailureNoticesNeverCrash) {
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const auto body = random_notice(rng);
    for (std::size_t pos = 0; pos < body.size(); ++pos) {
      for (int delta = 1; delta < 256; delta += 17) {
        auto mutated = body;
        mutated[pos] = static_cast<std::byte>(static_cast<int>(mutated[pos]) ^ delta);
        const auto notice = decode_failure_notice(mutated);
        // A mutation inside the dead-rank list legitimately decodes (to a
        // different list); a mutated count must be rejected, not chased.
        if (notice.has_value()) {
          EXPECT_LE(notice->dead.size() * 4 + 8, mutated.size());
        }
      }
    }
  }
}

TEST(WireFuzz, TruncatedFailureNoticesAreRejected) {
  std::mt19937_64 rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    const auto body = random_notice(rng);
    for (std::size_t len = 0; len < body.size(); ++len) {
      const std::vector<std::byte> prefix(body.begin(),
                                          body.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(decode_failure_notice(prefix).has_value())
          << "accepted a " << len << "-byte prefix in trial " << trial;
    }
  }
}

TEST(WireFuzz, RandomGarbageNeverCrashesNoticeDecode) {
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    const auto garbage = random_body(rng, 96);
    const auto notice = decode_failure_notice(garbage);
    if (notice.has_value()) {
      EXPECT_LE(notice->dead.size() * 4 + 8, garbage.size());
    }
  }
}

/// Stale-epoch replay: an attacker (or a delayed network) re-delivering an
/// old frame can never make it claim a newer membership than it was signed
/// with — flipping the member_epoch bytes breaks the checksum, and the only
/// legitimate path, restamp_member_epoch, re-signs the frame.
TEST(WireFuzz, StaleEpochReplayRequiresRestamp) {
  std::mt19937_64 rng(37);
  for (int trial = 0; trial < 50; ++trial) {
    FrameHeader h = random_header(rng);
    h.member_epoch = 3;
    const auto body = random_body(rng, 64);
    auto wire = encode_frame(h, body);

    // Patching the member_epoch field (offset 12) without re-signing must
    // read as corruption.
    auto patched = wire;
    patched[12] = static_cast<std::byte>(9);
    EXPECT_FALSE(decode_frame(patched).has_value());

    // Restamping is the sanctioned path: decodable, new epoch, same body.
    std::uniform_int_distribution<std::uint32_t> u32_dist;
    const std::uint32_t fresh = u32_dist(rng);
    restamp_member_epoch(wire, fresh);
    const auto dec = decode_frame(wire);
    ASSERT_TRUE(dec.has_value()) << "trial " << trial;
    EXPECT_EQ(dec->header.member_epoch, fresh);
    EXPECT_EQ(dec->header.kind, h.kind);
    EXPECT_EQ(dec->header.seq, h.seq);
    EXPECT_TRUE(std::equal(dec->body.begin(), dec->body.end(), body.begin(), body.end()));
  }
}

// ---------------------------------------------------------------------------
// Plan-layout fuzzing (zero-copy PR satellite). The gather path trusts a
// frozen layout's slot tables blindly — memcpys straight through them with no
// per-replay checks — so validate_plan_layout (run once at ExchangePlan
// construction) is the only thing standing between a corrupted layout and an
// out-of-bounds read. Every mutation class it promises to reject is pinned
// here, plus a random sweep proving the validator itself never crashes.

/// A small but fully featured recorded layout: one out-frame with two seed
/// slots, one inbound frame, one forwarded delivery out of that frame.
ExchangePlanLayout recorded_layout() {
  const Vpt vpt = Vpt::direct(4);
  const std::vector<std::pair<Rank, std::uint32_t>> pattern = {{2, 8}, {3, 4}};
  PlanRecorder rec(vpt, /*me=*/1, pattern);

  std::vector<Submessage> outs(2);
  outs[0].source = 1;
  outs[0].dest = 2;
  outs[0].size_bytes = 8;
  outs[1].source = 1;
  outs[1].dest = 3;
  outs[1].size_bytes = 4;
  outs[1].id = 1;
  std::vector<PayloadSrc> srcs(2);
  srcs[0].index = 0;
  srcs[0].bytes = 8;
  srcs[1].index = 1;
  srcs[1].bytes = 4;
  rec.on_stage_send(0, 2, outs, srcs);

  Submessage in{};
  in.source = 0;
  in.dest = 1;
  in.size_bytes = 6;
  const PlanInFrame& inf = rec.on_stage_recv(0, 0, {&in, 1});
  rec.on_stage_complete(0, 0, 0);

  Submessage del{};
  del.source = 0;
  del.dest = 1;
  del.size_bytes = 6;
  PayloadSrc del_src;
  del_src.kind = PayloadSrc::Kind::kRecv;
  del_src.stage = 0;
  del_src.frame = 0;
  del_src.offset = static_cast<std::uint32_t>(inf.subs[0].offset);
  del_src.bytes = 6;
  return rec.finish({&del, 1}, {&del_src, 1});
}

TEST(PlanLayoutFuzz, BaselineRecordedLayoutValidates) {
  const ExchangePlanLayout layout = recorded_layout();
  EXPECT_NO_THROW(validate_plan_layout(layout));
  // The runtime executor runs the same audit at construction.
  EXPECT_NO_THROW(stfw::runtime::ExchangePlan{layout});
}

TEST(PlanLayoutFuzz, EveryTargetedSlotTableMutationIsRejected) {
  using Mutator = void (*)(ExchangePlanLayout&);
  const std::pair<const char*, Mutator> mutations[] = {
      {"stage count mismatch", [](ExchangePlanLayout& l) { l.in_frames.clear(); }},
      {"slot table size mismatch",
       [](ExchangePlanLayout& l) { l.out_frames[0][0].slot_offsets.pop_back(); }},
      {"slot past frame image",
       [](ExchangePlanLayout& l) {
         l.out_frames[0][0].slot_offsets[1] =
             static_cast<std::uint32_t>(l.out_frames[0][0].image.size());
       }},
      {"overlapping slots",
       [](ExchangePlanLayout& l) {
         l.out_frames[0][0].slot_offsets[1] = l.out_frames[0][0].slot_offsets[0];
       }},
      {"seed index out of range",
       [](ExchangePlanLayout& l) { l.out_frames[0][0].slots[0].index = 99; }},
      {"seed size disagrees with pattern",
       [](ExchangePlanLayout& l) { l.signature.sequence[0].second = 7; }},
      {"recv stage out of range",
       [](ExchangePlanLayout& l) { l.deliveries[0].src.stage = 7; }},
      {"recv frame out of range",
       [](ExchangePlanLayout& l) { l.deliveries[0].src.frame = 9; }},
      {"recv slot past inbound frame",
       [](ExchangePlanLayout& l) {
         l.deliveries[0].src.offset =
             static_cast<std::uint32_t>(l.in_frames[0][0].wire_size);
       }},
      {"inbound submessage past frame",
       [](ExchangePlanLayout& l) { l.in_frames[0][0].subs[0].size_bytes = 1000; }},
  };
  for (const auto& [what, mutate] : mutations) {
    ExchangePlanLayout mutated = recorded_layout();
    mutate(mutated);
    EXPECT_THROW(validate_plan_layout(mutated), ValidationError) << what;
    EXPECT_THROW(stfw::runtime::ExchangePlan{mutated}, ValidationError) << what;
  }
}

/// Random numeric corruption: the validator must either accept (a mutation
/// can be semantically harmless) or throw ValidationError — never crash or
/// read out of bounds (the asan-ubsan preset turns the latter into failures).
TEST(PlanLayoutFuzz, RandomFieldCorruptionValidatesOrThrowsButNeverCrashes) {
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<std::uint32_t> val_dist;
  const ExchangePlanLayout base = recorded_layout();
  for (int trial = 0; trial < 500; ++trial) {
    ExchangePlanLayout l = base;
    for (int hit = 1 + static_cast<int>(val_dist(rng) % 3); hit > 0; --hit) {
      const std::uint32_t v = val_dist(rng);
      switch (val_dist(rng) % 8) {
        case 0: l.out_frames[0][0].slot_offsets[v % 2] = v; break;
        case 1: l.out_frames[0][0].slots[v % 2].bytes = v % 64; break;
        case 2: l.out_frames[0][0].slots[v % 2].index = v % 8; break;
        case 3: l.deliveries[0].src.offset = v % 64; break;
        case 4: l.deliveries[0].src.bytes = v % 64; break;
        case 5: l.deliveries[0].src.frame = static_cast<std::uint16_t>(v % 4); break;
        case 6: l.deliveries[0].src.stage = static_cast<std::uint8_t>(v % 4); break;
        case 7: l.in_frames[0][0].subs[0].size_bytes = v % 128; break;
      }
    }
    try {
      validate_plan_layout(l);
    } catch (const ValidationError&) {
      // Rejected loudly — the contract.
    }
  }
}

#if STFW_SANITIZE_ENABLED
// Pool hygiene under sanitized builds: a recycled buffer must come back
// poisoned (0xA5), so a stale InboundView into a released buffer can never
// silently read the previous exchange's payload (buffer_pool.cpp pins the
// poison constant here).
TEST(BufferPoolFuzz, RecycledBuffersComeBackPoisoned) {
  BufferPool pool;
  auto buf = pool.acquire(96);
  std::fill(buf.begin(), buf.end(), std::byte{0x11});
  pool.release(std::move(buf));
  const auto again = pool.acquire(96);
  ASSERT_EQ(pool.stats().hits, 1);
  for (std::size_t i = 0; i < again.size(); ++i)
    ASSERT_EQ(static_cast<int>(again[i]), 0xA5) << "byte " << i << " not poisoned";
}
#endif

TEST(WireFuzz, TruncatedStageMessagesThrowOrDecodeSafely) {
  std::mt19937_64 rng(19);
  for (const bool tracked : {false, true}) {
    const auto wire = random_stage_wire(rng, tracked);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const std::vector<std::byte> prefix(wire.begin(),
                                          wire.begin() + static_cast<std::ptrdiff_t>(len));
      PayloadArena arena;
      try {
        const auto subs =
            tracked ? deserialize_tracked(prefix, arena) : deserialize(prefix, arena);
        for (const Submessage& s : subs)
          ASSERT_LE(s.offset + s.size_bytes, arena.size_bytes());
      } catch (const Error&) {
      }
    }
  }
}

}  // namespace
}  // namespace stfw::core
