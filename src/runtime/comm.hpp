#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/sync.hpp"
#include "core/verify_hooks.hpp"
#include "membership.hpp"
#include "mpsc_ring.hpp"

/// \file comm.hpp
/// In-process message-passing runtime.
///
/// The paper's algorithm is written against MPI; this environment has no MPI
/// installation, so the runtime substitutes an in-process cluster: each rank
/// is a thread, each rank owns a tagged mailbox, sends are buffered
/// (enqueue-and-return, like MPI_Bsend), receives block until a matching
/// message arrives. Semantics relied upon by the store-and-forward code:
///
///  * point-to-point ordering: two messages from the same source with the
///    same tag arrive in send order;
///  * barrier(): collective; all sends issued before a rank enters the
///    barrier are visible to drain() calls made after it returns.
///
/// This is deliberately a small, honest subset of MPI — enough to run
/// Algorithm 1 exactly as each MPI rank would run it.
///
/// Resilience plumbing (docs/fault_model.md):
///
///  * every blocking primitive has a deadline overload that throws
///    core::TimeoutError instead of hanging, naming the peer waited for;
///  * an optional per-cluster watchdog detects the all-ranks-blocked
///    deadlock and reports which rank/tag each thread is stuck on;
///  * a fault::FaultInjector can be plugged in to drop, delay, duplicate,
///    reorder or truncate messages at the post site — the adversary the
///    resilient exchange mode is tested against. Point-to-point ordering
///    and the barrier visibility guarantee above hold only for traffic the
///    injector leaves alone.

namespace stfw::fault {
class FaultInjector;
}

namespace stfw::runtime {

inline constexpr int kAnySource = -1;

struct Message {
  int source = -1;
  int tag = 0;
  std::vector<std::byte> data;
  /// Per-(source, dest) send sequence number, stamped by Comm::send. The
  /// lock-free mailbox delivers ring and overflow arrivals through a
  /// per-source ticket gate keyed on this, restoring the point-to-point
  /// ordering guarantee no matter which channel a message raced through.
  std::uint64_t ticket = 0;
#if STFW_VERIFY_ENABLED
  std::uint64_t verify_id = 0;  // stfw-verify message identity (send edge id)
#endif
};

/// Absolute time budget for a blocking primitive. Deadline::never() blocks
/// indefinitely (the pre-fault-layer behaviour). Time is read through
/// verify::verify_now() so that under the stfw-verify scheduler deadlines
/// follow the deterministic logical clock; in normal builds that is exactly
/// steady_clock::now().
struct Deadline {
  std::chrono::steady_clock::time_point at = std::chrono::steady_clock::time_point::max();

  static Deadline never() noexcept { return Deadline{}; }
  static Deadline in(std::chrono::milliseconds d) {
    return Deadline{verify::verify_now() + d};
  }
  bool is_never() const noexcept {
    return at == std::chrono::steady_clock::time_point::max();
  }
  bool expired() const noexcept {
    return !is_never() && verify::verify_now() >= at;
  }
};

class Cluster;

/// Per-rank communicator handle. Valid only inside Cluster::run's callback,
/// on the thread that received it.
class Comm {
public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  /// Buffered send: enqueues `data` into dest's mailbox and returns. Subject
  /// to the cluster's fault injector, if any.
  void send(int dest, int tag, std::vector<std::byte> data);

  /// Blocking receive of the first message matching (source, tag);
  /// source may be kAnySource. The deadline overload throws
  /// core::TimeoutError when it expires first.
  Message recv(int source, int tag);
  Message recv(int source, int tag, Deadline deadline);

  /// All messages with `tag` currently in the mailbox, sorted by source
  /// (then arrival order). Non-blocking; complete after a barrier that
  /// orders it after the sends of interest.
  std::vector<Message> drain(int tag);

  /// Blocks until one message with `tag` from *every* rank in `sources` is
  /// queued, then returns them in ascending-source order (the first queued
  /// match per source; later same-tag messages stay queued in send order).
  /// This is the stage-aware demultiplexer of the dependency-driven
  /// exchange: a rank advances the moment its per-stage inbound dependency
  /// set is satisfied, while frames tagged for later stages wait in the
  /// mailbox untouched. Throws core::TimeoutError naming a missing source
  /// when the deadline expires first, or as soon as an awaited source is
  /// dead (it can never satisfy the dependency).
  std::vector<Message> recv_from_each(std::span<const int> sources, int tag,
                                      Deadline deadline = Deadline::never());

  /// True iff a message matching (source, tag) is queued.
  bool probe(int source, int tag);

  /// Blocks until any message is queued in this rank's mailbox or the
  /// deadline expires; returns whether the mailbox is non-empty. Poll
  /// primitive for protocols that multiplex several tags (the resilient
  /// exchange's event loop).
  bool wait_message(Deadline deadline);

  /// Collective synchronization over all ranks of the cluster. The deadline
  /// overload throws core::TimeoutError when the barrier does not complete
  /// in time (some peer failed to arrive).
  void barrier();
  void barrier(Deadline deadline);

  /// Convenience collective: every rank contributes `mine`; returns all
  /// contributions indexed by rank. Built on send/recv via rank 0. The
  /// deadline applies to every internal receive.
  std::vector<std::vector<std::byte>> allgather(std::vector<std::byte> mine);
  std::vector<std::vector<std::byte>> allgather(std::vector<std::byte> mine,
                                                Deadline deadline);

  /// Immediately delivers every fault-injector-delayed message to its
  /// mailbox. Protocol epilogues call this (between barriers) so no injected
  /// delay can leak a message into a later exchange. No-op without faults.
  void flush_delayed();

  /// The cluster's fault injector, or nullptr. Exchange implementations call
  /// its stage sites (stall/crash injection) from here.
  fault::FaultInjector* fault_injector() const noexcept;

  /// The cluster's membership state (who is alive, at which epoch). The
  /// degraded exchange path polls Membership::epoch() to detect rank deaths
  /// mid-protocol.
  [[nodiscard]] const Membership& membership() const noexcept;

private:
  friend class Cluster;
  Comm(Cluster& cluster, int rank);

  Cluster* cluster_;
  int rank_;
  /// Next ticket per destination (Message::ticket). A Comm lives on exactly
  /// one rank thread, so plain counters suffice; they start at zero every
  /// run because the Comm itself is constructed fresh inside run().
  std::vector<std::uint64_t> seq_out_;
};

/// A fixed-size set of ranks executing a common function on private threads.
class Cluster {
public:
  explicit Cluster(int num_ranks);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int size() const noexcept { return num_ranks_; }

  /// Run fn(comm) on every rank; returns when all ranks finish.
  ///
  /// Error aggregation: secondary failures (ClusterAbortedError — a rank
  /// unblocked because a peer threw) are discarded. If exactly one primary
  /// error remains it is rethrown with its original type; if several ranks
  /// failed independently, a core::MultiRankError summarizing every failing
  /// rank is thrown instead. May be called repeatedly; mailboxes must be
  /// empty in between (checked). Messages still delayed by the fault
  /// injector when run() returns are dropped.
  void run(const std::function<void(Comm&)>& fn);

  /// Plug in (or remove, with nullptr) a fault injector. Must not be called
  /// while run() is active.
  void set_fault_injector(std::shared_ptr<fault::FaultInjector> injector);
  const std::shared_ptr<fault::FaultInjector>& fault_injector() const noexcept {
    return injector_;
  }

  /// Arm the deadlock watchdog: a monitor thread observes the cluster during
  /// run() and, when every active rank has been blocked in recv / barrier /
  /// wait_message with no message delivered for at least `window`, aborts
  /// the run with a core::DeadlockError reporting where each rank is stuck
  /// (thrown on the lowest blocked rank; peers see ClusterAbortedError).
  /// window == 0 disables (default). Must not be called during run().
  void set_watchdog(std::chrono::milliseconds window) { watchdog_window_ = window; }

  /// Membership state: all ranks alive at the start of every run; a rank
  /// that throws fault::RankCrashedError is marked dead (epoch bump) and the
  /// run continues on the survivors. Membership::failed() after run() tells
  /// the caller who died.
  [[nodiscard]] const Membership& membership() const noexcept { return membership_; }

  /// Enable/disable the lock-free MPSC mailbox fast path (default: the
  /// STFW_LOCKFREE_MAILBOX flag, on when unset). Even when enabled it is
  /// only used on runs without a fault injector — injected reorder/delay/
  /// duplicate need the locked queue's semantics. Must not be called during
  /// run().
  void set_lockfree_mailbox(bool enabled) { lockfree_enabled_ = enabled; }
  /// Ring capacity per mailbox for the lock-free path (default: the
  /// STFW_MAILBOX_RING variable, 256 when unset; 0 is clamped to 1). Tiny
  /// capacities are valid — overflow falls back to the locked channel — and
  /// are how the tests force channel interleaving. Must not be called
  /// during run().
  void set_mailbox_ring_capacity(std::size_t slots) { ring_capacity_ = slots; }
  /// Whether the current/last run() used the lock-free delivery path.
  [[nodiscard]] bool lockfree_active() const noexcept { return lockfree_run_; }

  /// Test-support observability: called on the sender's thread for every
  /// post *before* the fault injector rules on it, so the tap sees dropped
  /// transmissions and their retransmits alike (how the byte-identity
  /// regression pins retransmitted frames to the originals). The callback
  /// must be thread-safe — posts from different ranks invoke it
  /// concurrently — and must copy the bytes if it keeps them. nullptr
  /// removes the tap. Must not be called during run().
  void set_wire_tap(
      std::function<void(int source, int dest, int tag, std::span<const std::byte>)> tap) {
    wire_tap_ = std::move(tap);
  }

private:
  friend class Comm;

  struct Mailbox {
    core::Mutex mu;
    core::CondVar cv;
    std::deque<Message> queue STFW_GUARDED_BY(mu);

    // Lock-free fast path (fault-free runs only; see lockfree_run_). The
    // ring and the waiting flag are touched without mu — the ring carries
    // its own synchronization and the flag is the Dekker handshake of the
    // sleep protocol. Everything else stays under mu: the overflow channel
    // (ring-full fallback), and the per-source ticket gate the consumer
    // runs while harvesting (next_ticket/held), which restores per-source
    // FIFO regardless of which channel a message raced through.
    std::unique_ptr<MpscRing<Message>> ring;
    std::atomic<bool> consumer_waiting{false};
    std::deque<Message> overflow STFW_GUARDED_BY(mu);
    std::vector<std::uint64_t> next_ticket STFW_GUARDED_BY(mu);
    std::vector<std::vector<Message>> held STFW_GUARDED_BY(mu);
  };

  /// What a rank's thread is doing, as seen by the watchdog.
  struct BlockInfo {
    enum class Kind : std::uint8_t { kRunning, kRecv, kBarrier, kWait, kDone };
    Kind kind = Kind::kRunning;
    int source = 0;
    int tag = 0;
    std::chrono::steady_clock::time_point since{};
  };

  struct DelayedMessage {
    std::chrono::steady_clock::time_point release;
    int dest;
    Message msg;
  };

  void post(int dest, Message msg);
  void post_raw(int dest, Message msg, bool to_front = false);
  Message blocking_recv(int me, int source, int tag, Deadline deadline);
  std::vector<Message> recv_from_each(int me, std::span<const int> sources, int tag,
                                      Deadline deadline);
  std::vector<Message> drain(int me, int tag);
  bool probe(int me, int source, int tag);
  bool wait_message(int me, Deadline deadline);
  void barrier_wait(int me, Deadline deadline);
  void abort_all();
  void flush_delayed();

  /// Absorbs a survivable crash on rank `me`'s own unwind path: marks it
  /// dead, discards its mailbox, releases any barrier now satisfied by the
  /// survivors alone, and wakes every blocked thread to re-evaluate.
  void rank_died(int me);
  /// Release the barrier if every *alive* rank has arrived. Dead ranks never
  /// arrive, so the release target is the live count, re-evaluated on every
  /// arrival and on every death.
  void maybe_release_barrier() STFW_REQUIRES(barrier_mu_);

  /// Consumer-side: move every published ring/overflow message through the
  /// per-source ticket gate into mb.queue. Only the mailbox owner (or the
  /// main thread while no rank threads run) may call it — it pops the
  /// single-consumer ring. No-op unless this run is lock-free.
  void harvest(Mailbox& mb) STFW_REQUIRES(mb.mu);
  /// Ticket gate: release `msg` into mb.queue if it is the next expected
  /// ticket from its source (plus any held successors), else park it.
  void gate_deliver(Mailbox& mb, Message msg) STFW_REQUIRES(mb.mu);
  /// Dump ring + overflow + held into mb.queue with no ordering gate; for
  /// run-boundary sweeps (emptiness checks, dead-rank/stranded clears)
  /// where only "is anything left" matters.
  void drain_lockfree_raw(Mailbox& mb) STFW_REQUIRES(mb.mu);

  void set_block_state(int me, BlockInfo::Kind kind, int source = 0, int tag = 0)
      STFW_EXCLUDES(block_mu_);
  /// Checks deadlock/abort flags from inside a blocking primitive; throws
  /// DeadlockError on the designated victim rank, ClusterAbortedError
  /// otherwise. Returns normally when neither flag is set.
  void throw_if_torn_down(int me, const char* op) STFW_EXCLUDES(block_mu_);
  /// The throwing tail of throw_if_torn_down, for call sites that already
  /// know a teardown flag is set (lets TSA see the path as terminal).
  [[noreturn]] void throw_torn_down(int me, const char* op) STFW_EXCLUDES(block_mu_);

  // The monitor naps 1 ms between rounds on `cv`; stop_monitor() sets
  // monitor_stop_ and signals it, so run() does not wait out the nap when
  // it joins the monitor. Lives on run()'s stack, for one run.
  struct MonitorNap {
    core::Mutex mu;
    core::CondVar cv;
  };
  void monitor_loop(MonitorNap& nap);
  void stop_monitor(MonitorNap& nap);
  void check_deadlock(std::chrono::steady_clock::time_point now);

  int num_ranks_;
  std::atomic<bool> aborted_{false};
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  Membership membership_;

  // Lock-free mailbox mode. lockfree_run_ is decided quiescently at the top
  // of every run() (enabled && no injector) before any rank thread exists,
  // and never changes mid-run — rank threads read it data-race-free via the
  // thread-creation happens-before edge.
  bool lockfree_enabled_;
  std::size_t ring_capacity_;
  bool lockfree_run_ = false;

  // Reusable two-phase barrier.
  core::Mutex barrier_mu_;
  core::CondVar barrier_cv_;
  int barrier_count_ STFW_GUARDED_BY(barrier_mu_) = 0;
  std::uint64_t barrier_generation_ STFW_GUARDED_BY(barrier_mu_) = 0;

  // Fault layer.
  std::shared_ptr<fault::FaultInjector> injector_;
  // Set quiescently (before run()), only read during it — no guard needed.
  std::function<void(int, int, int, std::span<const std::byte>)> wire_tap_;
  core::Mutex delayed_mu_;
  std::vector<DelayedMessage> delayed_ STFW_GUARDED_BY(delayed_mu_);

  // Watchdog state.
  std::chrono::milliseconds watchdog_window_{0};
  core::Mutex block_mu_;
  std::vector<BlockInfo> block_state_ STFW_GUARDED_BY(block_mu_);
  std::atomic<std::uint64_t> progress_{0};  // deliveries + barrier completions
  std::atomic<bool> deadlocked_{false};
  int deadlock_victim_ STFW_GUARDED_BY(block_mu_) = -1;
  std::string deadlock_report_ STFW_GUARDED_BY(block_mu_);
  // Private to the monitor thread between run() boundaries; unannotated.
  std::uint64_t last_progress_ = 0;
  std::chrono::steady_clock::time_point last_progress_time_{};

  // Monitor thread (watchdog + delayed-message pump); alive only during run().
  core::Thread monitor_;
  std::atomic<bool> monitor_stop_{false};
};

}  // namespace stfw::runtime
