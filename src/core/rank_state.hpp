#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "message.hpp"
#include "vpt.hpp"

/// \file rank_state.hpp
/// Per-process state of the store-and-forward scheme — Algorithm 1.
///
/// StfwRankState owns the forward buffers fwbuf[d][x] of one process and
/// implements the three phases of Algorithm 1:
///
///   1. seeding from the process's SendSet (lines 4-6),
///   2. per-stage outbox formation (lines 9-12) and scatter of received
///      submessages into later-stage buffers (lines 14-17),
///   3. gathering the submessages destined for this process (lines 18-21).
///
/// Both execution substrates (the threaded runtime and the BSP simulator)
/// drive this one class, so routing behaviour cannot diverge between them.

namespace stfw::core {

class StfwRankState {
public:
  StfwRankState(const Vpt& vpt, Rank me);

  Rank rank() const noexcept { return me_; }
  const Vpt& vpt() const noexcept { return *vpt_; }

  /// Algorithm 1 lines 4-6: queue an original message for `dest` in the
  /// buffer of the first dimension where our coordinates differ. A message
  /// to ourselves is delivered immediately (it never hits the network).
  /// `id` is the per-source submessage id (see Submessage::id); the plain
  /// exchange leaves it 0.
  void add_send(Rank dest, std::uint64_t payload_offset, std::uint32_t payload_bytes,
                std::uint32_t id = 0);

  /// Seeding fast path for replayed patterns: like add_send, but the caller
  /// supplies the routing dimension (`first_dim`, -1 for a self-send) frozen
  /// in an ExchangePlanLayout, skipping the per-send first_diff_dim scan.
  /// The value is trusted — a wrong dimension is caught by accept()'s
  /// routing assertion at the next hop, not here.
  void add_send_routed(Rank dest, int first_dim, std::uint64_t payload_offset,
                       std::uint32_t payload_bytes, std::uint32_t id = 0);

  /// Algorithm 1 lines 9-12: move the dimension-`stage` buffer out as
  /// coalesced messages, one run per neighbor, in ascending neighbor order;
  /// within a run submessages keep their arrival order. The buffer is
  /// consumed (and its storage released) by this call; routing guarantees
  /// nothing is scattered into it afterwards (asserted). Appends to `out`,
  /// whose run indices refer to out.subs.
  void make_stage_outbox(int stage, StageOutbox& out);

  /// Algorithm 1 lines 14-17: scatter submessages received in `stage` into
  /// the buffers of the first dimension > stage where we differ from the
  /// destination; submessages addressed to us are delivered.
  void accept(int stage, std::span<const Submessage> subs);

  /// Algorithm 1 lines 18-21: the list L of submessages for this process.
  /// Valid after all n stages have run; sorted by (source, arrival order).
  const std::vector<Submessage>& delivered() const noexcept { return delivered_; }
  std::vector<Submessage> take_delivered() noexcept { return std::move(delivered_); }

  /// Bytes of payload currently parked in forward buffers.
  std::uint64_t buffered_payload_bytes() const noexcept { return buffered_bytes_; }

  /// Submessages currently parked in forward buffers — the paper's per-stage
  /// residency count (≤ K-1 for single-message-per-pair patterns).
  std::uint64_t buffered_submessage_count() const noexcept { return buffered_count_; }

  /// High-water mark of buffered_payload_bytes() over the exchange, the
  /// store-and-forward part of the paper's buffer-size metric.
  std::uint64_t peak_buffered_payload_bytes() const noexcept { return peak_buffered_bytes_; }

  /// Total payload bytes delivered to this process so far.
  std::uint64_t delivered_payload_bytes() const noexcept { return delivered_bytes_; }

  /// Reset all buffers for a fresh exchange on the same VPT.
  void reset();

private:
  void stash(int stage_from, const Submessage& s);
  void stash_into(int d, const Submessage& s);

  // A submessage parked for stage d. `key` is (digit d of its destination)
  // << 32 | (its arrival index in the buffer): sorting a buffer by key
  // groups it by neighbor in digit order and keeps arrival order within
  // each neighbor, so the sort is stable without a merge buffer.
  struct Parked {
    std::uint64_t key;
    Submessage sub;
  };

  const Vpt* vpt_;
  Rank me_;
  int stages_consumed_ = 0;  // buffers for stages < this are gone
  // fwbuf_[d]: every submessage to forward in stage d, in arrival order —
  // one flat vector per dimension, the neighbor being the key's digit (never
  // our own digit d: self-routing is resolved at delivery). A flat buffer
  // costs nothing for the k_d - 1 neighbors a rank does not talk to, which
  // matters for the direct topology at large K. make_stage_outbox releases
  // a stage's storage, so pooled states do not keep every stage's
  // high-water capacity alive between exchanges.
  std::vector<std::vector<Parked>> fwbuf_;
  std::vector<Submessage> delivered_;
  std::uint64_t buffered_bytes_ = 0;
  std::uint64_t buffered_count_ = 0;
  std::uint64_t peak_buffered_bytes_ = 0;
  std::uint64_t delivered_bytes_ = 0;
};

}  // namespace stfw::core
