// Conservative parallel discrete-event executor (CMB-style per-neighbor
// windows with extracted lookahead).
//
// The topology is split into shards, each owning a private Simulator (clock
// + event queue). Cross-shard interactions travel through SPSC mailboxes
// stamped with absolute delivery times and a producer-side sequence.
//
// Every shard s owns a padded atomic clock pubs_[s] — a promise that s
// will never again execute an event below it. A shard advances against the
// minimum of its *in-neighbors'* promises:
//
//   bound(s) = min over in-neighbors p of  pubs_[p] + L(p→s)
//
// where L(p→s) is the extracted per-pair lookahead (cut-link propagation
// plus minimum-frame serialization — see exp/partition.h). Each visit to a
// shard: acquire-read the neighbor clocks, drain the inboxes (everything
// flushed before those clock stores is visible), run_before(bound), flush
// the outboxes, then release-publish pub = min(next_event_time, bound).
// Publishing a higher pub with no event executed is the CMB null message:
// an idle shard's promise keeps advancing so low-traffic neighbors never
// stall the ring. The global barrier is demoted to round start/end.
//
// Safety: a message sent while executing an event at local time t is
// delivered at >= t + L, and a shard only executes below its published pub,
// so mail invisible to a drain that acquire-read pub = V has delivery time
// >= V + L >= bound — never in the receiver's executed past. pub is
// monotone within a round, so bounds only grow.
//
// Termination: while real events <= deadline exist, the shard holding the
// globally earliest one always has bound > that event (lookaheads are > 0),
// so progress never deadlocks. When a thread's shards are all done
// (bound past the deadline, queue drained past it) or all stalled (a full
// sweep with no progress), it signals; once every thread has signalled,
// all rendezvous at the barrier, drain residual mail, and compute the exact
// global minimum next-event time: past the deadline ends the round, and an
// earlier value is jumped to directly (pubs raised to it), skipping the
// O(idle-gap / lookahead) null-message creep a pure CMB protocol would pay
// through quiescent stretches.
//
// Determinism: drained mail is scheduled with the explicit tie sequence
// mail_tie_seq(src_shard, seq) (see sim/event_queue.h), so same-(time, key)
// collisions order as (at, key, src_shard, seq) — a pure function of
// simulation content, independent of thread count, drain timing, window
// schedule, or handoff batch depth. The same seed therefore produces
// bit-identical per-shard event streams on 1 or N threads at any batch
// depth.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/parallel/barrier.h"
#include "sim/parallel/spsc_mailbox.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace acdc::sim::par {

class ParallelExecutor {
 public:
  // Extracted lookahead for one directed shard pair (exp/partition computes
  // these from cut-link propagation + minimum serialization delay).
  struct PairLookahead {
    int src = 0;
    int dst = 0;
    Time lookahead = 0;
  };

  struct Config {
    std::vector<Simulator*> shards;   // one Simulator per shard, non-owning
    std::vector<Mailbox*> mailboxes;  // every cross-shard channel, non-owning
    Time lookahead = 0;               // global fallback; must be > 0
    // Per-pair extracted lookaheads; pairs not listed fall back to
    // `lookahead`.
    std::vector<PairLookahead> pair_lookaheads;
    int threads = 1;  // capped to the shard count
    // Cross-shard handoff batch depth: sends buffer producer-side and
    // publish as one burst (1 = publish each send immediately).
    int handoff_batch = 1;
  };

  explicit ParallelExecutor(Config config);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  // Advances every shard to `deadline`, exchanging cross-shard mail as it
  // goes. Clocks end exactly at max(now, deadline), mirroring
  // Simulator::run_until. Call from one thread only (the one that built the
  // executor); it participates as worker 0.
  void run_until(Time deadline);

  int threads() const { return thread_count_; }

  struct Stats {
    // Shard window advances (visits that executed events or raised the
    // shard's clock).
    std::uint64_t epochs = 0;
    std::uint64_t messages = 0;         // cross-shard deliveries merged
    std::uint64_t null_msgs = 0;        // idle clock advances (no event run)
    std::uint64_t executed_events = 0;  // summed over shards
    std::uint64_t barrier_wait_ns = 0;  // summed over threads
    std::uint64_t idle_wait_ns = 0;     // summed over threads
  };
  // Safe to call concurrently with run_until (the metrics sampler reads it
  // mid-run from the shard-0 thread): every field is derived from relaxed
  // atomic counters, so values are approximate while threads are running
  // and exact once run_until returns.
  Stats stats() const;

 private:
  // Per-shard shared state: the published safe-time clock plus the
  // executed-event counter, both written by the owning worker and read by
  // neighbors / the stats sampler. One cache line per shard.
  struct alignas(64) ShardClock {
    std::atomic<Time> pub{0};
    std::atomic<std::uint64_t> executed{0};
  };
  // Per-thread diagnostic counters, sampled mid-run by stats().
  struct alignas(64) ThreadStats {
    std::atomic<std::uint64_t> windows{0};
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> null_msgs{0};
    std::atomic<std::uint64_t> barrier_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
  };
  struct InNeighbor {
    int src = 0;
    Time lookahead = 0;
  };
  struct alignas(64) PaddedTime {
    Time v = kNoTime;
  };

  void worker_main(int tid);
  void round_loop(int tid, Time deadline);
  std::size_t drain_shard(int shard);
  void flush_outboxes(int shard);
  // One shard visit; returns true if the shard made progress (executed
  // events, drained mail, or raised its clock).
  bool advance_shard(int shard, Time deadline);
  // Rendezvous once every thread is stalled or done: drains residual mail,
  // computes the exact global minimum next-event time, and either ends the
  // round (min past deadline) or jumps every clock to it. Clears
  // *stalled_flagged (and the shared count) before resuming. Returns true
  // when the round is over.
  bool rendezvous(int tid, Time deadline, bool* stalled_flagged);

  std::vector<Simulator*> shards_;
  std::vector<Mailbox*> mailboxes_;
  int thread_count_;

  // inboxes_[s]: every mailbox whose destination is shard s.
  std::vector<std::vector<Mailbox*>> inboxes_;
  // outboxes_[s]: every mailbox whose source is shard s (flushed by the
  // owner before each clock publication / barrier).
  std::vector<std::vector<Mailbox*>> outboxes_;
  // in_neighbors_[s]: distinct source shards feeding s, with the extracted
  // per-pair lookahead (global fallback when no pair entry exists).
  std::vector<std::vector<InNeighbor>> in_neighbors_;
  // Per-shard drain scratch, reused across visits (consumer-thread-only).
  std::vector<std::vector<CrossShardMsg>> scratch_;
  // done_[s]: shard finished this round (owner-thread-only).
  std::vector<std::uint8_t> shard_done_;

  SpinBarrier barrier_;
  std::vector<ShardClock> clocks_;       // one line per shard
  std::vector<ThreadStats> thread_stats_;  // one line per thread
  std::vector<PaddedTime> mins_;         // rendezvous min slots

  // Rendezvous bookkeeping: a thread signals when all its shards are done
  // for the round or when a full sweep made no progress; the rendezvous
  // fires when done + stalled == thread_count_.
  std::atomic<int> done_threads_{0};
  std::atomic<int> stalled_threads_{0};

  // Worker parking between run_until calls.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t round_ = 0;
  Time deadline_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace acdc::sim::par
