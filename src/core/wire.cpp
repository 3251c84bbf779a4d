#include "wire.hpp"

#include <bit>
#include <cstring>

#include "error.hpp"

namespace stfw::core {

namespace {

// resize + memcpy rather than insert(end, p, p + sizeof(T)): gcc 12's
// -Wstringop-overflow misfires on the 4-byte insert path at -O2.
template <class T>
void put(std::vector<std::byte>& out, T v) {
  const std::size_t pos = out.size();
  out.resize(pos + sizeof(T));
  std::memcpy(out.data() + pos, &v, sizeof(T));
}

template <class T>
T get(std::span<const std::byte> in, std::size_t& pos) {
  require(pos + sizeof(T) <= in.size(), "deserialize: truncated buffer");
  T v;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

std::uint64_t payload_of(std::span<const Submessage> subs) noexcept {
  std::uint64_t b = 0;
  for (const Submessage& s : subs) b += s.size_bytes;
  return b;
}

std::uint64_t tracked_size_bytes(std::span<const Submessage> subs) noexcept {
  return wire_size_bytes(subs.size(), payload_of(subs)) + 4 * subs.size();
}

void put_tracked(std::vector<std::byte>& out, std::span<const Submessage> subs,
                 const PayloadArena& arena) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(subs.size()));
  for (const Submessage& s : subs) {
    put<std::int32_t>(out, s.source);
    put<std::int32_t>(out, s.dest);
    put<std::uint32_t>(out, s.id);
    put<std::uint32_t>(out, s.size_bytes);
    const auto payload = arena.view(s);
    out.insert(out.end(), payload.begin(), payload.end());
  }
}

// XXH64's primes.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

// A word in host order, which is little-endian like the rest of the wire
// format (put/get above copy host-order fields too).
template <class T>
T load(const std::byte* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t lane) noexcept {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}

std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t acc) noexcept {
  return (h ^ xxh_round(0, acc)) * kP1 + kP4;
}

// Field offsets in the frame layout: magic(0) kind(4) stage(6) epoch(8)
// member_epoch(12) seq(16) sender(20) body_len(24) checksum(28) body(36).
constexpr std::size_t kMemberEpochPos = 12;
constexpr std::size_t kChecksumPos = 28;

/// Checksum of a whole frame image: the header bytes before the checksum
/// field, then the body.
std::uint64_t frame_sum(std::span<const std::byte> frame) noexcept {
  return frame_checksum(frame.subspan(kFrameOverheadBytes),
                        frame_checksum(frame.first(kChecksumPos)));
}

/// Append `header` with a placeholder checksum; seal() fills it in once the
/// body follows.
void put_header(std::vector<std::byte>& out, const FrameHeader& header) {
  put<std::uint32_t>(out, kFrameMagic);
  put<std::uint16_t>(out, static_cast<std::uint16_t>(header.kind));
  put<std::uint16_t>(out, header.stage);
  put<std::uint32_t>(out, header.epoch);
  put<std::uint32_t>(out, header.member_epoch);
  put<std::uint32_t>(out, header.seq);
  put<std::int32_t>(out, header.sender);
  put<std::uint32_t>(out, header.body_len);
  put<std::uint64_t>(out, 0);
}

void seal(std::vector<std::byte>& frame) noexcept {
  const std::uint64_t sum = frame_sum(frame);
  std::memcpy(frame.data() + kChecksumPos, &sum, sizeof(sum));
}

}  // namespace

std::vector<std::byte> serialize(std::span<const Submessage> subs, const PayloadArena& arena) {
  std::vector<std::byte> out;
  out.reserve(wire_size_bytes(subs.size(), payload_of(subs)));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(subs.size()));
  for (const Submessage& s : subs) {
    put<std::int32_t>(out, s.source);
    put<std::int32_t>(out, s.dest);
    put<std::uint32_t>(out, s.size_bytes);
    const auto payload = arena.view(s);
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

std::vector<Submessage> deserialize(std::span<const std::byte> wire, PayloadArena& arena) {
  std::size_t pos = 0;
  const auto count = get<std::uint32_t>(wire, pos);
  // Every submessage needs at least its 12-byte header; checking before the
  // reserve keeps a corrupt count from demanding gigabytes up front.
  require(static_cast<std::uint64_t>(count) * 12 <= wire.size() - pos,
          "deserialize: submessage count exceeds buffer");
  std::vector<Submessage> subs;
  subs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Submessage s;
    s.source = get<std::int32_t>(wire, pos);
    s.dest = get<std::int32_t>(wire, pos);
    s.size_bytes = get<std::uint32_t>(wire, pos);
    require(pos + s.size_bytes <= wire.size(), "deserialize: truncated payload");
    s.offset = arena.add(std::span<const std::byte>(wire.data() + pos, s.size_bytes));
    pos += s.size_bytes;
    subs.push_back(s);
  }
  require(pos == wire.size(), "deserialize: trailing bytes");
  return subs;
}

std::vector<std::byte> serialize_tracked(std::span<const Submessage> subs,
                                         const PayloadArena& arena) {
  std::vector<std::byte> out;
  out.reserve(tracked_size_bytes(subs));
  put_tracked(out, subs, arena);
  return out;
}

std::vector<Submessage> deserialize_tracked(std::span<const std::byte> wire,
                                            PayloadArena& arena) {
  std::size_t pos = 0;
  const auto count = get<std::uint32_t>(wire, pos);
  // As above, but the tracked format carries a 16-byte per-sub header.
  require(static_cast<std::uint64_t>(count) * 16 <= wire.size() - pos,
          "deserialize: submessage count exceeds buffer");
  std::vector<Submessage> subs;
  subs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Submessage s;
    s.source = get<std::int32_t>(wire, pos);
    s.dest = get<std::int32_t>(wire, pos);
    s.id = get<std::uint32_t>(wire, pos);
    s.size_bytes = get<std::uint32_t>(wire, pos);
    require(pos + s.size_bytes <= wire.size(), "deserialize: truncated payload");
    s.offset = arena.add(std::span<const std::byte>(wire.data() + pos, s.size_bytes));
    pos += s.size_bytes;
    subs.push_back(s);
  }
  require(pos == wire.size(), "deserialize: trailing bytes");
  return subs;
}

std::uint64_t frame_checksum(std::span<const std::byte> bytes, std::uint64_t seed) noexcept {
  const std::byte* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  std::uint64_t h = seed + kP5;
  if (n >= 32) {
    std::uint64_t v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed, v4 = seed - kP1;
    for (; n - i >= 32; i += 32) {
      v1 = xxh_round(v1, load<std::uint64_t>(p + i));
      v2 = xxh_round(v2, load<std::uint64_t>(p + i + 8));
      v3 = xxh_round(v3, load<std::uint64_t>(p + i + 16));
      v4 = xxh_round(v4, load<std::uint64_t>(p + i + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4);
  }
  h += n;
  for (; n - i >= 8; i += 8)
    h = std::rotl(h ^ xxh_round(0, load<std::uint64_t>(p + i)), 27) * kP1 + kP4;
  if (n - i >= 4) {
    h = std::rotl(h ^ load<std::uint32_t>(p + i) * kP1, 23) * kP2 + kP3;
    i += 4;
  }
  for (; i < n; ++i) h = std::rotl(h ^ static_cast<std::uint64_t>(p[i]) * kP5, 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::vector<std::byte> encode_frame(FrameHeader header, std::span<const std::byte> body) {
  header.body_len = static_cast<std::uint32_t>(body.size());
  std::vector<std::byte> out;
  out.reserve(kFrameOverheadBytes + body.size());
  put_header(out, header);
  out.insert(out.end(), body.begin(), body.end());
  seal(out);
  return out;
}

std::vector<std::byte> encode_tracked_frame(FrameHeader header, std::span<const Submessage> subs,
                                            const PayloadArena& arena) {
  const std::uint64_t body_len = tracked_size_bytes(subs);
  header.body_len = static_cast<std::uint32_t>(body_len);
  std::vector<std::byte> out;
  out.reserve(kFrameOverheadBytes + body_len);
  put_header(out, header);
  put_tracked(out, subs, arena);
  seal(out);
  return out;
}

std::optional<DecodedFrame> decode_frame(std::span<const std::byte> wire) noexcept {
  if (wire.size() < kFrameOverheadBytes) return std::nullopt;
  std::size_t pos = 0;
  if (get<std::uint32_t>(wire, pos) != kFrameMagic) return std::nullopt;
  DecodedFrame f;
  const auto kind = get<std::uint16_t>(wire, pos);
  if (kind < static_cast<std::uint16_t>(FrameKind::kData) ||
      kind > static_cast<std::uint16_t>(FrameKind::kFailureNotice))
    return std::nullopt;
  f.header.kind = static_cast<FrameKind>(kind);
  f.header.stage = get<std::uint16_t>(wire, pos);
  f.header.epoch = get<std::uint32_t>(wire, pos);
  f.header.member_epoch = get<std::uint32_t>(wire, pos);
  f.header.seq = get<std::uint32_t>(wire, pos);
  f.header.sender = get<std::int32_t>(wire, pos);
  f.header.body_len = get<std::uint32_t>(wire, pos);
  const auto claimed = get<std::uint64_t>(wire, pos);
  if (wire.size() != kFrameOverheadBytes + f.header.body_len) return std::nullopt;
  if (frame_sum(wire) != claimed) return std::nullopt;
  f.body = wire.subspan(pos);
  return f;
}

void restamp_member_epoch(std::vector<std::byte>& wire, std::uint32_t member_epoch) {
  require(wire.size() >= kFrameOverheadBytes, "restamp_member_epoch: not a frame");
  std::memcpy(wire.data() + kMemberEpochPos, &member_epoch, sizeof(member_epoch));
  seal(wire);
}

std::vector<std::byte> encode_failure_notice(std::uint32_t membership_epoch,
                                             std::span<const std::int32_t> dead) {
  std::vector<std::byte> out;
  out.reserve(8 + 4 * dead.size());
  put<std::uint32_t>(out, membership_epoch);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(dead.size()));
  for (const std::int32_t r : dead) put<std::int32_t>(out, r);
  return out;
}

std::optional<FailureNotice> decode_failure_notice(std::span<const std::byte> body) noexcept {
  if (body.size() < 8) return std::nullopt;
  std::size_t pos = 0;
  FailureNotice n;
  n.membership_epoch = get<std::uint32_t>(body, pos);
  const auto count = get<std::uint32_t>(body, pos);
  // Bound the count by the bytes actually present before reserving, as the
  // submessage deserializers do: a corrupt count must not demand gigabytes.
  if (static_cast<std::uint64_t>(count) * 4 != body.size() - pos) return std::nullopt;
  n.dead.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) n.dead.push_back(get<std::int32_t>(body, pos));
  return n;
}

}  // namespace stfw::core
