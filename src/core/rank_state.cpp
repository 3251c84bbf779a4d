#include "rank_state.hpp"

#include <algorithm>

#include "error.hpp"

namespace stfw::core {

StfwRankState::StfwRankState(const Vpt& vpt, Rank me) : vpt_(&vpt), me_(me) {
  require(me >= 0 && me < vpt.size(), "StfwRankState: rank out of range");
  fwbuf_.resize(static_cast<std::size_t>(vpt.dim()));
}

void StfwRankState::add_send(Rank dest, std::uint64_t payload_offset,
                             std::uint32_t payload_bytes, std::uint32_t id) {
  require(dest >= 0 && dest < vpt_->size(), "add_send: destination out of range");
  require(stages_consumed_ == 0, "add_send: exchange already started");
  const Submessage s{me_, dest, payload_offset, payload_bytes, id};
  if (dest == me_) {
    delivered_.push_back(s);
    delivered_bytes_ += payload_bytes;
    return;
  }
  stash(-1, s);
}

void StfwRankState::add_send_routed(Rank dest, int first_dim, std::uint64_t payload_offset,
                                    std::uint32_t payload_bytes, std::uint32_t id) {
  require(dest >= 0 && dest < vpt_->size(), "add_send_routed: destination out of range");
  require(stages_consumed_ == 0, "add_send_routed: exchange already started");
  const Submessage s{me_, dest, payload_offset, payload_bytes, id};
  if (first_dim < 0) {
    STFW_ASSERT(dest == me_, "add_send_routed: negative dimension but not a self-send");
    delivered_.push_back(s);
    delivered_bytes_ += payload_bytes;
    return;
  }
  require(first_dim < vpt_->dim(), "add_send_routed: dimension out of range");
  stash_into(first_dim, s);
}

void StfwRankState::stash(int stage_from, const Submessage& s) {
  const int d = vpt_->first_diff_dim_after(me_, s.dest, stage_from);
  if (d < 0) {
    STFW_ASSERT(s.dest == me_, "stash: no differing dimension but not addressed to me");
    delivered_.push_back(s);
    delivered_bytes_ += s.size_bytes;
    return;
  }
  STFW_ASSERT(d >= stages_consumed_, "stash: routing targets an already-consumed stage buffer");
  stash_into(d, s);
}

void StfwRankState::stash_into(int d, const Submessage& s) {
  auto& buf = fwbuf_[static_cast<std::size_t>(d)];
  const auto digit = static_cast<std::uint64_t>(vpt_->coord(s.dest, d));
  buf.push_back(Parked{digit << 32 | buf.size(), s});
  buffered_bytes_ += s.size_bytes;
  ++buffered_count_;
  peak_buffered_bytes_ = std::max(peak_buffered_bytes_, buffered_bytes_);
}

void StfwRankState::make_stage_outbox(int stage, StageOutbox& out) {
  require(stage == stages_consumed_, "make_stage_outbox: stages must run in order");
  require(stage < vpt_->dim(), "make_stage_outbox: stage out of range");
  auto& buf = fwbuf_[static_cast<std::size_t>(stage)];
  const auto by_key = [](const Parked& a, const Parked& b) { return a.key < b.key; };
  if (!std::is_sorted(buf.begin(), buf.end(), by_key)) std::sort(buf.begin(), buf.end(), by_key);
  const auto mine = static_cast<std::uint64_t>(vpt_->coord(me_, stage));
  for (std::size_t i = 0; i < buf.size();) {
    const std::uint64_t digit = buf[i].key >> 32;
    STFW_ASSERT(digit != mine, "make_stage_outbox: own-coordinate slot must stay empty");
    OutboxRun run;
    run.to = vpt_->with_coord(me_, stage, static_cast<int>(digit));
    run.begin = static_cast<std::uint32_t>(out.subs.size());
    for (; i < buf.size() && buf[i].key >> 32 == digit; ++i) {
      out.subs.push_back(buf[i].sub);
      run.payload_bytes += buf[i].sub.size_bytes;
    }
    run.end = static_cast<std::uint32_t>(out.subs.size());
    buffered_bytes_ -= run.payload_bytes;
    buffered_count_ -= run.end - run.begin;
    out.runs.push_back(run);
  }
  std::vector<Parked>().swap(buf);
  ++stages_consumed_;
}

void StfwRankState::accept(int stage, std::span<const Submessage> subs) {
  require(stage == stages_consumed_ - 1,
          "accept: received messages belong to the stage just consumed");
  for (const Submessage& s : subs) {
    STFW_ASSERT(vpt_->coord(s.dest, stage) == vpt_->coord(me_, stage),
                "accept: dimension-order routing violated");
    stash(stage, s);
  }
}

void StfwRankState::reset() {
  for (auto& dim : fwbuf_) dim.clear();
  delivered_.clear();
  stages_consumed_ = 0;
  buffered_bytes_ = 0;
  buffered_count_ = 0;
  peak_buffered_bytes_ = 0;
  delivered_bytes_ = 0;
}

}  // namespace stfw::core
