#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "message.hpp"

/// \file wire.hpp
/// Wire format of a coalesced stage message.
///
/// Layout (little-endian, packed):
///   u32 count
///   count times: { i32 source, i32 dest, u32 len, u8 bytes[len] }
///
/// The threaded runtime ships stage messages in this format (as a real MPI
/// implementation would); the BSP simulator skips the byte copies but the
/// format is still what the buffer-size metric charges for.
///
/// On top of it sits a *frame* layer used by the resilient exchange
/// (docs/fault_model.md): every transmission is wrapped in a checksummed,
/// sequence-numbered header so drops, duplicates, reordering and truncation
/// become detectable and recoverable instead of fatal.

namespace stfw::core {

/// Bytes the wire format needs for a stage message with `count` submessages
/// totalling `payload_bytes` of payload.
constexpr std::uint64_t wire_size_bytes(std::uint64_t count, std::uint64_t payload_bytes) {
  return 4 + count * 12 + payload_bytes;
}

/// Serialize the stage message carrying `subs` (one StageOutbox run, or a
/// StageMessage's subs), pulling payload bytes from `arena`.
std::vector<std::byte> serialize(std::span<const Submessage> subs, const PayloadArena& arena);

/// Parse a wire buffer; payloads are appended to `arena` and the returned
/// submessages reference it. Throws Error on malformed input.
std::vector<Submessage> deserialize(std::span<const std::byte> wire, PayloadArena& arena);

/// Variants of serialize/deserialize that additionally carry each
/// submessage's per-source id (layout: u32 count, then per submessage
/// { i32 source, i32 dest, u32 id, u32 len, u8 bytes[len] }). The resilient
/// exchange uses these so final destinations can deduplicate a submessage
/// that arrives both via store-and-forward and via the direct fallback; the
/// plain exchange keeps the id-less paper format above.
std::vector<std::byte> serialize_tracked(std::span<const Submessage> subs,
                                         const PayloadArena& arena);
std::vector<Submessage> deserialize_tracked(std::span<const std::byte> wire, PayloadArena& arena);

// --- resilient frame layer -------------------------------------------------
//
// Frame layout (little-endian, packed):
//   u32 magic  u16 kind  u16 stage  u32 epoch  u32 member_epoch  u32 seq
//   i32 sender  u32 body_len  u64 checksum  u8 body[body_len]
//
// `seq` is monotonically increasing per sender within one exchange, so every
// frame a rank emits is globally identified by (sender, epoch, seq); acks
// echo the seq they acknowledge. `member_epoch` is the cluster membership
// version the sender believed in when it built the frame: receivers whose
// membership has advanced past it nack the frame, forcing the sender to
// observe the failure and re-route before retrying (docs/fault_model.md,
// "Membership epochs"). `checksum` covers the 28 header bytes before it and
// the body: frame_checksum of the body, seeded with frame_checksum of those
// header bytes. That catches the truncation and bit-rot faults the injector
// can produce. The checksum is XXH64 (below), not FNV-1a: FNV-1a does one
// dependent multiply per byte, and every payload byte is checksummed twice
// per store-and-forward hop. Nor is it CRC32C: a fast CRC32C needs CPU
// intrinsics plus a portable fallback beside them, and the frame layer keeps
// one code path.

inline constexpr std::uint32_t kFrameMagic = 0x53544652u;  // "STFR"
inline constexpr std::uint64_t kFrameOverheadBytes = 36;

enum class FrameKind : std::uint16_t {
  kData = 1,    // a serialized StageMessage routed between stage neighbors
  kAck = 2,     // acknowledges (sender, seq); empty body
  kDirect = 3,  // degradation fallback: submessages sent straight to dest
  kNack = 4,    // refuses (sender, seq): receiver moved past that stage or
                // has a newer membership epoch; the sender should re-route
                // instead of retrying
  kRelay = 5,   // degraded-mode re-homing: tracked submessages detoured
                // around a dead rank; receivers deliver their own and
                // forward the rest along surviving dimension-order hops
  kFailureNotice = 6,  // membership change announcement; body is the
                       // failure-notice codec below
};

struct FrameHeader {
  FrameKind kind = FrameKind::kData;
  std::uint16_t stage = 0;  // sending stage; unused for kAck/kDirect
  std::uint32_t epoch = 0;  // exchange number on the communicator
  std::uint32_t member_epoch = 0;  // sender's membership version
  std::uint32_t seq = 0;    // per-sender frame counter (acked seq for kAck)
  std::int32_t sender = -1; // authoritative origin of the frame
  std::uint32_t body_len = 0;
};

/// A decoded frame; `body` aliases the input buffer.
struct DecodedFrame {
  FrameHeader header;
  std::span<const std::byte> body;
};

/// XXH64 of `bytes` with `seed`: 8-byte little-endian words feed four
/// independent multiply-rotate lanes per 32-byte stripe, the 8-, 4- and
/// 1-byte tail is folded in, and an avalanche finalizer mixes the result.
/// Portable C++ (no intrinsics); digests equal the reference XXH64.
std::uint64_t frame_checksum(std::span<const std::byte> bytes, std::uint64_t seed = 0) noexcept;

/// Wrap `body` in a frame with `header` (its body_len is overwritten) and a
/// freshly computed checksum.
std::vector<std::byte> encode_frame(FrameHeader header, std::span<const std::byte> body);

/// The frame encode_frame(header, serialize_tracked(subs, arena)) would
/// produce, byte for byte, written in one pass into one buffer of exactly
/// the frame's size: the tracked body is never materialized on its own.
std::vector<std::byte> encode_tracked_frame(FrameHeader header, std::span<const Submessage> subs,
                                            const PayloadArena& arena);

/// Parse a frame. Returns std::nullopt — never throws — when the buffer is
/// truncated, carries the wrong magic, or fails the checksum: a corrupt
/// frame is indistinguishable from a lost one and is recovered the same way
/// (sender retransmission), so it is dropped rather than raised.
std::optional<DecodedFrame> decode_frame(std::span<const std::byte> wire) noexcept;

/// Rewrite the member_epoch field of an already encoded frame in place and
/// recompute the checksum. Used when a sender observes a membership change
/// while frames are still unacknowledged: the payload is unchanged, only the
/// sender's membership claim advances, so receivers stop nacking it as stale.
void restamp_member_epoch(std::vector<std::byte>& wire, std::uint32_t member_epoch);

// --- failure-notice body codec ---------------------------------------------
//
// Body layout (little-endian, packed):
//   u32 membership_epoch  u32 dead_count  i32 dead[dead_count]
//
// Carried by kFailureNotice frames. The notice is a wake-up, not the source
// of truth: receivers compare `membership_epoch` against their own observed
// membership and re-snapshot from the cluster when the notice is newer; a
// stale or corrupt notice is ignored.

struct FailureNotice {
  std::uint32_t membership_epoch = 0;
  std::vector<std::int32_t> dead;
};

std::vector<std::byte> encode_failure_notice(std::uint32_t membership_epoch,
                                             std::span<const std::int32_t> dead);

/// Parse a failure-notice body. Returns std::nullopt — never throws — on a
/// truncated buffer, a dead-rank count that exceeds the bytes present, or
/// trailing garbage, so a corrupt notice can never crash a survivor.
std::optional<FailureNotice> decode_failure_notice(std::span<const std::byte> body) noexcept;

}  // namespace stfw::core
