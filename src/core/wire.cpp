#include "wire.hpp"

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
  out.reserve(wire_size_bytes(subs.size(), payload_of(subs)) + 4 * subs.size());
  put<std::uint32_t>(out, static_cast<std::uint32_t>(subs.size()));
  for (const Submessage& s : subs) {
    put<std::int32_t>(out, s.source);
    put<std::int32_t>(out, s.dest);
    put<std::uint32_t>(out, s.id);
    put<std::uint32_t>(out, s.size_bytes);
    const auto payload = arena.view(s);
    out.insert(out.end(), payload.begin(), payload.end());
  }
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

std::uint64_t fnv1a(std::span<const std::byte> bytes, std::uint64_t h) noexcept {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::byte> encode_frame(FrameHeader header, std::span<const std::byte> body) {
  header.body_len = static_cast<std::uint32_t>(body.size());
  std::vector<std::byte> out;
  out.reserve(kFrameOverheadBytes + body.size());
  put<std::uint32_t>(out, kFrameMagic);
  put<std::uint16_t>(out, static_cast<std::uint16_t>(header.kind));
  put<std::uint16_t>(out, header.stage);
  put<std::uint32_t>(out, header.epoch);
  put<std::uint32_t>(out, header.member_epoch);
  put<std::uint32_t>(out, header.seq);
  put<std::int32_t>(out, header.sender);
  put<std::uint32_t>(out, header.body_len);
  // Checksum covers everything framed so far plus the body.
  const std::uint64_t sum = fnv1a(body, fnv1a(out));
  put<std::uint64_t>(out, sum);
  out.insert(out.end(), body.begin(), body.end());
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
  const std::size_t checksum_pos = pos;
  const auto claimed = get<std::uint64_t>(wire, pos);
  if (wire.size() != kFrameOverheadBytes + f.header.body_len) return std::nullopt;
  f.body = wire.subspan(pos);
  const std::uint64_t sum = fnv1a(f.body, fnv1a(wire.first(checksum_pos)));
  if (sum != claimed) return std::nullopt;
  return f;
}

void restamp_member_epoch(std::vector<std::byte>& wire, std::uint32_t member_epoch) {
  // Field offsets in the frame layout: magic(0) kind(4) stage(6) epoch(8)
  // member_epoch(12) seq(16) sender(20) body_len(24) checksum(28) body(36).
  constexpr std::size_t kMemberEpochPos = 12;
  constexpr std::size_t kChecksumPos = 28;
  require(wire.size() >= kFrameOverheadBytes, "restamp_member_epoch: not a frame");
  std::memcpy(wire.data() + kMemberEpochPos, &member_epoch, sizeof(member_epoch));
  const std::span<const std::byte> all(wire);
  const std::uint64_t sum =
      fnv1a(all.subspan(kFrameOverheadBytes), fnv1a(all.first(kChecksumPos)));
  std::memcpy(wire.data() + kChecksumPos, &sum, sizeof(sum));
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
