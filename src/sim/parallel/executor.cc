#include "sim/parallel/executor.h"

#include <algorithm>
#include <chrono>

#include "sim/check.h"

namespace acdc::sim::par {

namespace {

// min over the kNoTime-means-empty domain.
Time merge_min(Time a, Time b) {
  if (a == kNoTime) return b;
  if (b == kNoTime) return a;
  return a < b ? a : b;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

// A drained cross-shard message waiting in the receiver's queue. The
// mailbox disposes of mail still in its ring at teardown; this covers mail
// already drained: discarded unfired, it disposes of its payload the same
// way.
struct MailDelivery {
  void (*deliver)(void* ctx, void* payload);
  void (*dispose)(void* ctx, void* payload);
  void* ctx;
  void* payload;

  void operator()() const { deliver(ctx, payload); }
  void drop() const {
    if (dispose != nullptr) dispose(ctx, payload);
  }
};

// Consecutive no-progress sweeps before a thread declares itself stalled.
// Low: a no-progress sweep is a handful of atomic reads per shard, and the
// sooner every thread is flagged, the sooner the rendezvous can jump the
// clocks over an idle stretch instead of null-message-creeping through it.
constexpr int kStallSweeps = 2;

}  // namespace

ParallelExecutor::ParallelExecutor(Config config)
    : shards_(std::move(config.shards)),
      mailboxes_(std::move(config.mailboxes)),
      thread_count_(std::max(
          1, std::min(config.threads, static_cast<int>(shards_.size())))),
      barrier_(thread_count_) {
  ACDC_CHECK(config.lookahead > 0,
             "parallel executor: global lookahead must be positive, "
             "lookahead=%lld", static_cast<long long>(config.lookahead));
  ACDC_CHECK(!shards_.empty(), "parallel executor: no shards");

  const std::size_t n = shards_.size();
  inboxes_.resize(n);
  outboxes_.resize(n);
  in_neighbors_.resize(n);
  scratch_.resize(n);
  shard_done_.assign(n, 0);
  clocks_ = std::vector<ShardClock>(n);
  thread_stats_ = std::vector<ThreadStats>(
      static_cast<std::size_t>(thread_count_));
  mins_.resize(static_cast<std::size_t>(thread_count_));

  const int batch = config.handoff_batch;
  for (Mailbox* mb : mailboxes_) {
    ACDC_CHECK(mb->src_shard() >= 0 && mb->src_shard() < static_cast<int>(n),
               "parallel executor: mailbox %d->%d src shard out of range "
               "[0, %zu)", mb->src_shard(), mb->dst_shard(), n);
    ACDC_CHECK(mb->dst_shard() >= 0 && mb->dst_shard() < static_cast<int>(n),
               "parallel executor: mailbox %d->%d dst shard out of range "
               "[0, %zu)", mb->src_shard(), mb->dst_shard(), n);
    mb->set_batch_depth(batch);
    inboxes_[static_cast<std::size_t>(mb->dst_shard())].push_back(mb);
    outboxes_[static_cast<std::size_t>(mb->src_shard())].push_back(mb);

    // Per-pair extracted lookahead, falling back to the global minimum for
    // pairs the analysis pass did not cover.
    Time la = config.lookahead;
    for (const PairLookahead& pl : config.pair_lookaheads) {
      if (pl.src == mb->src_shard() && pl.dst == mb->dst_shard()) {
        ACDC_CHECK(pl.lookahead > 0,
                   "parallel executor: pair %d->%d lookahead must be "
                   "positive, lookahead=%lld", pl.src, pl.dst,
                   static_cast<long long>(pl.lookahead));
        la = pl.lookahead;
        break;
      }
    }
    auto& nbs = in_neighbors_[static_cast<std::size_t>(mb->dst_shard())];
    bool found = false;
    for (InNeighbor& nb : nbs) {
      if (nb.src == mb->src_shard()) {
        // Two channels for the same pair: the promise must cover both.
        nb.lookahead = std::min(nb.lookahead, la);
        found = true;
        break;
      }
    }
    if (!found) nbs.push_back(InNeighbor{mb->src_shard(), la});
  }

  workers_.reserve(static_cast<std::size_t>(thread_count_ - 1));
  for (int tid = 1; tid < thread_count_; ++tid) {
    workers_.emplace_back([this, tid] { worker_main(tid); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ParallelExecutor::run_until(Time deadline) {
  // Mail produced outside the loops — workload construction before the first
  // round, scenario code running between rounds — bypasses the end-of-window
  // flushes, which only happen inside a round. Publish it before any thread
  // drains: with batched handoffs such a send would otherwise sit in the
  // producer buffer through the first drain, merge one window late, and lose
  // its same-tick content-key order against the receiver's local events
  // (batch depth must never change the merged stream). No thread is mid-round
  // here, so flushing every producer buffer from this thread is safe; the
  // lock below publishes the stores to the workers.
  for (Mailbox* mb : mailboxes_) mb->flush();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    deadline_ = deadline;
    ++round_;
  }
  cv_.notify_all();
  // The caller's thread is worker 0; when it leaves the loop every other
  // worker has passed the final barrier of this round, so all shard state
  // is safe to read until the next run_until.
  round_loop(0, deadline);
}

void ParallelExecutor::worker_main(int tid) {
  std::uint64_t seen = 0;
  for (;;) {
    Time deadline;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
      deadline = deadline_;
    }
    round_loop(tid, deadline);
  }
}

std::size_t ParallelExecutor::drain_shard(int shard) {
  const auto s = static_cast<std::size_t>(shard);
  Simulator* sim = shards_[s];
  std::vector<CrossShardMsg>& batch = scratch_[s];
  std::size_t drained = 0;
  for (Mailbox* mb : inboxes_[s]) {
    batch.clear();
    mb->drain(batch);
    if (batch.empty()) continue;
    const auto src = static_cast<std::uint32_t>(mb->src_shard());
    for (const CrossShardMsg& m : batch) {
      // The window protocol keeps mail in the receiver's future;
      // schedule_at_keyed_seq's causality check enforces it in every build.
      // MailDelivery fits EventAction's inline storage, so merging mail
      // stays allocation-free. The content tie key plus the explicit
      // (src_shard, seq) tie sequence make the merged order across inboxes
      // a pure function of simulation state: no sort, no dependence on
      // drain boundaries or thread count.
      sim->schedule_at_keyed_seq(
          m.at, m.key, mail_tie_seq(src, m.seq),
          MailDelivery{m.deliver, m.dispose, m.ctx, m.payload});
    }
    drained += batch.size();
  }
  return drained;
}

void ParallelExecutor::flush_outboxes(int shard) {
  for (Mailbox* mb : outboxes_[static_cast<std::size_t>(shard)]) mb->flush();
}

bool ParallelExecutor::advance_shard(int shard, Time deadline) {
  const auto s = static_cast<std::size_t>(shard);
  Simulator* sim = shards_[s];
  ShardClock& clk = clocks_[s];
  ThreadStats& ts = thread_stats_[static_cast<std::size_t>(shard %
                                                           thread_count_)];

  // Window bound from the in-neighbors' promises. The acquire loads pair
  // with the producers' release stores: every message flushed before a
  // promise we read is visible to the drain below.
  Time limit = deadline + 1;
  for (const InNeighbor& nb : in_neighbors_[s]) {
    const Time b =
        clocks_[static_cast<std::size_t>(nb.src)].pub.load(
            std::memory_order_acquire) +
        nb.lookahead;
    if (b < limit) limit = b;
  }

  const std::size_t drained = drain_shard(shard);
  if (drained > 0) {
    ts.messages.fetch_add(drained, std::memory_order_relaxed);
  }

  const std::uint64_t before = sim->executed_events();
  sim->run_before(limit);
  const std::uint64_t executed = sim->executed_events() - before;

  // Publish sends, then the new promise: the queue is empty below `limit`,
  // future mail lands at or above the current bound, so `limit` bounds
  // every future execution of this shard. The release store pairs with the
  // neighbors' acquire loads above.
  flush_outboxes(shard);
  const Time old_pub = clk.pub.load(std::memory_order_relaxed);
  if (limit > old_pub) {
    clk.pub.store(limit, std::memory_order_release);
    ts.windows.fetch_add(1, std::memory_order_relaxed);
    if (executed == 0) {
      // CMB null message: an idle promise advance, no event behind it.
      ts.null_msgs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (executed > 0) {
    clk.executed.store(sim->executed_events(), std::memory_order_relaxed);
  }

  const Time nxt = sim->next_event_time();
  if (limit == deadline + 1 && (nxt == kNoTime || nxt > deadline)) {
    // Every in-neighbor promised to stay past the deadline and the local
    // queue is drained past it: this shard's round is over.
    sim->advance_to(deadline);
    clk.executed.store(sim->executed_events(), std::memory_order_relaxed);
    shard_done_[s] = 1;
  }
  return executed > 0 || drained > 0;
}

bool ParallelExecutor::rendezvous(int tid, Time deadline,
                                  bool* stalled_flagged) {
  const auto t = static_cast<std::size_t>(tid);
  ThreadStats& ts = thread_stats_[t];
  std::uint64_t wait_ns = 0;
  barrier_.arrive_and_wait_timed(&wait_ns);

  // Every thread is between visits: nothing executes, nothing is buffered
  // (outboxes flush at the end of every visit). Drain residual mail, then
  // publish the exact minimum pending event time over my shards.
  const int n_shards = static_cast<int>(shards_.size());
  Time local = kNoTime;
  for (int s = tid; s < n_shards; s += thread_count_) {
    const std::size_t drained = drain_shard(s);
    if (drained > 0) ts.messages.fetch_add(drained, std::memory_order_relaxed);
    local = merge_min(local,
                      shards_[static_cast<std::size_t>(s)]->next_event_time());
  }
  mins_[t].v = local;
  barrier_.arrive_and_wait_timed(&wait_ns);

  // Every thread computes the identical global minimum.
  Time global = kNoTime;
  for (const PaddedTime& m : mins_) global = merge_min(global, m.v);

  if (global == kNoTime || global > deadline) {
    for (int s = tid; s < n_shards; s += thread_count_) {
      Simulator* sim = shards_[static_cast<std::size_t>(s)];
      sim->advance_to(deadline);
      clocks_[static_cast<std::size_t>(s)].executed.store(
          sim->executed_events(), std::memory_order_relaxed);
    }
    barrier_.arrive_and_wait_timed(&wait_ns);
    ts.barrier_ns.fetch_add(wait_ns, std::memory_order_relaxed);
    return true;
  }

  // Not done — jump every promise to the global floor. With all mail
  // drained and no thread executing, every future event in the system is
  // >= global, so raising a promise to it is sound; this skips the
  // O(gap / lookahead) null-message creep across an idle stretch.
  for (int s = tid; s < n_shards; s += thread_count_) {
    const auto si = static_cast<std::size_t>(s);
    if (shard_done_[si]) continue;
    ShardClock& clk = clocks_[si];
    if (clk.pub.load(std::memory_order_relaxed) < global) {
      clk.pub.store(global, std::memory_order_release);
    }
  }
  if (*stalled_flagged) {
    *stalled_flagged = false;
    stalled_threads_.fetch_sub(1, std::memory_order_acq_rel);
  }
  barrier_.arrive_and_wait_timed(&wait_ns);
  ts.barrier_ns.fetch_add(wait_ns, std::memory_order_relaxed);
  return false;
}

void ParallelExecutor::round_loop(int tid, Time deadline) {
  const auto t = static_cast<std::size_t>(tid);
  const int n_shards = static_cast<int>(shards_.size());
  ThreadStats& ts = thread_stats_[t];

  // Round start: promises reset to the shard clocks (equal across shards —
  // every round ends with advance_to(deadline)), rendezvous bookkeeping
  // cleared. The barrier publishes all of it before the first sweep.
  int my_shards = 0;
  for (int s = tid; s < n_shards; s += thread_count_) {
    const auto si = static_cast<std::size_t>(s);
    clocks_[si].pub.store(shards_[si]->now(), std::memory_order_relaxed);
    shard_done_[si] = 0;
    ++my_shards;
  }
  if (tid == 0) {
    done_threads_.store(0, std::memory_order_relaxed);
    stalled_threads_.store(0, std::memory_order_relaxed);
  }
  {
    std::uint64_t wait_ns = 0;
    barrier_.arrive_and_wait_timed(&wait_ns);
    ts.barrier_ns.fetch_add(wait_ns, std::memory_order_relaxed);
  }

  bool done_flagged = false;
  bool stalled_flagged = false;
  int no_progress_sweeps = 0;
  for (;;) {
    bool progress = false;
    int done_now = 0;
    for (int s = tid; s < n_shards; s += thread_count_) {
      if (shard_done_[static_cast<std::size_t>(s)] != 0) {
        ++done_now;
        continue;
      }
      if (advance_shard(s, deadline)) progress = true;
      if (shard_done_[static_cast<std::size_t>(s)] != 0) ++done_now;
    }

    if (done_now == my_shards) {
      if (!done_flagged) {
        done_flagged = true;
        done_threads_.fetch_add(1, std::memory_order_acq_rel);
        if (stalled_flagged) {
          stalled_flagged = false;
          stalled_threads_.fetch_sub(1, std::memory_order_acq_rel);
        }
      }
    } else if (progress) {
      no_progress_sweeps = 0;
      if (stalled_flagged) {
        stalled_flagged = false;
        stalled_threads_.fetch_sub(1, std::memory_order_acq_rel);
      }
    } else if (!stalled_flagged && ++no_progress_sweeps >= kStallSweeps) {
      // Progress means events executed or mail drained; promise creep
      // alone does not count, so an idle stretch flags quickly and the
      // rendezvous below can jump over it.
      stalled_flagged = true;
      stalled_threads_.fetch_add(1, std::memory_order_acq_rel);
    }

    if (done_flagged || stalled_flagged) {
      if (done_threads_.load(std::memory_order_acquire) +
              stalled_threads_.load(std::memory_order_acquire) ==
          thread_count_) {
        if (rendezvous(tid, deadline, &stalled_flagged)) return;
        no_progress_sweeps = 0;
        continue;
      }
    }

    if (!progress) {
      // Nothing executable yet: yield so the neighbor that must move next
      // gets the core (essential on oversubscribed boxes).
      const auto t0 = std::chrono::steady_clock::now();
#if defined(__unix__) || defined(__APPLE__)
      sched_yield();
#else
      cpu_relax();
#endif
      ts.idle_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
    }
  }
}

ParallelExecutor::Stats ParallelExecutor::stats() const {
  Stats st;
  for (const ThreadStats& ts : thread_stats_) {
    st.epochs += ts.windows.load(std::memory_order_relaxed);
    st.messages += ts.messages.load(std::memory_order_relaxed);
    st.null_msgs += ts.null_msgs.load(std::memory_order_relaxed);
    st.barrier_wait_ns += ts.barrier_ns.load(std::memory_order_relaxed);
    st.idle_wait_ns += ts.idle_ns.load(std::memory_order_relaxed);
  }
  for (const ShardClock& clk : clocks_) {
    st.executed_events += clk.executed.load(std::memory_order_relaxed);
  }
  return st;
}

}  // namespace acdc::sim::par
