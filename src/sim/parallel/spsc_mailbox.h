// Cross-shard message channel for the conservative parallel executor.
//
// A Mailbox is a lock-free unbounded single-producer/single-consumer queue
// of CrossShardMsg, one per directed shard pair that shares at least one
// link. The producer is the source shard's worker thread (ports push while
// it runs the shard's events); the consumer is the destination shard's
// worker thread (the executor drains every inbox at the start of each
// shard visit, concurrently with the producer).
//
// Determinism: each mailbox stamps messages with a producer-side sequence
// number at send() time (before any batching), and the executor schedules
// each drained message with the explicit tie sequence
// mail_tie_seq(src_shard, seq), so the merged order across inboxes is
// (deliver_time, tie_key, source_shard, seq) — a pure function of the
// simulation state, never of thread timing or drain boundaries. The tie key
// (see sim/event_queue.h) additionally makes the merged order match what the
// serial engine would have produced for the same same-tick deliveries.
//
// Batching: set_batch_depth(n) buffers up to n messages producer-side and
// publishes them with push_burst — one release-store per ring node instead
// of one per message. flush() force-publishes the pending tail; the executor
// flushes every outbox before publishing its safe-time clock, so batching
// never changes which messages are visible at a synchronization point.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace acdc::sim::par {

// A type-erased cross-shard delivery. The payload's meaning is fixed by the
// function pointers: `deliver` runs on the destination shard at `at` and
// takes ownership of `payload`; `dispose` reclaims a payload that was never
// delivered (executor torn down with mail still in flight).
struct CrossShardMsg {
  Time at = 0;
  std::uint64_t key = kUnkeyedTieKey;  // same-tick ordering (event_queue.h)
  std::uint64_t seq = 0;
  void (*deliver)(void* ctx, void* payload) = nullptr;
  void (*dispose)(void* ctx, void* payload) = nullptr;
  void* ctx = nullptr;
  void* payload = nullptr;
};

// Unbounded SPSC queue of CrossShardMsg, chunked so steady-state traffic
// recycles nodes instead of allocating per message is not needed: nodes are
// freed by the consumer as it drains past them, and a node holds 256
// messages, so allocation is one `new` per 256 cross-shard packets.
class SpscQueue {
 public:
  SpscQueue() {
    Node* n = new Node();
    head_.store(n, std::memory_order_relaxed);
    tail_ = n;
  }
  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  ~SpscQueue() {
    Node* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  // Producer side only.
  void push(const CrossShardMsg& msg) {
    Node* t = tail_;
    const std::size_t w = t->write.load(std::memory_order_relaxed);
    if (w == kNodeCapacity) {
      Node* n = new Node();
      n->items[0] = msg;
      n->write.store(1, std::memory_order_release);
      t->next.store(n, std::memory_order_release);
      tail_ = n;
      return;
    }
    t->items[w] = msg;
    t->write.store(w + 1, std::memory_order_release);
  }

  // Producer side only: appends `n` messages with one release-store per ring
  // node touched (at most ceil(n / kNodeCapacity) + 1 stores), instead of one
  // per message. Messages become visible to the consumer atomically per
  // node segment, in order.
  void push_burst(const CrossShardMsg* msgs, std::size_t n) {
    while (n > 0) {
      Node* t = tail_;
      std::size_t w = t->write.load(std::memory_order_relaxed);
      if (w == kNodeCapacity) {
        Node* fresh = new Node();
        const std::size_t take = n < kNodeCapacity ? n : kNodeCapacity;
        for (std::size_t i = 0; i < take; ++i) fresh->items[i] = msgs[i];
        fresh->write.store(take, std::memory_order_release);
        t->next.store(fresh, std::memory_order_release);
        tail_ = fresh;
        msgs += take;
        n -= take;
        continue;
      }
      const std::size_t room = kNodeCapacity - w;
      const std::size_t take = n < room ? n : room;
      for (std::size_t i = 0; i < take; ++i) t->items[w + i] = msgs[i];
      t->write.store(w + take, std::memory_order_release);
      msgs += take;
      n -= take;
    }
  }

  // Consumer side only: appends every currently visible message to `out`
  // and removes it from the queue. Returns the number drained.
  template <typename Vec>
  std::size_t drain(Vec& out) {
    std::size_t drained = 0;
    Node* h = head_.load(std::memory_order_relaxed);
    for (;;) {
      const std::size_t w = h->write.load(std::memory_order_acquire);
      while (h->read < w) {
        out.push_back(h->items[h->read++]);
        ++drained;
      }
      if (h->read < kNodeCapacity) break;  // producer may still fill this node
      Node* next = h->next.load(std::memory_order_acquire);
      if (next == nullptr) break;
      delete h;
      h = next;
    }
    head_.store(h, std::memory_order_relaxed);
    return drained;
  }

 private:
  static constexpr std::size_t kNodeCapacity = 256;

  struct Node {
    CrossShardMsg items[kNodeCapacity];
    std::atomic<std::size_t> write{0};  // producer cursor (release)
    std::size_t read = 0;               // consumer cursor (consumer-private)
    std::atomic<Node*> next{nullptr};
  };

  std::atomic<Node*> head_;  // consumer end
  Node* tail_;               // producer end (producer-private)
};

// Directed shard-pair channel. `send` is producer-thread-only and stamps
// the per-mailbox sequence number used for deterministic merge ordering.
class Mailbox {
 public:
  Mailbox(int src_shard, int dst_shard)
      : src_shard_(src_shard), dst_shard_(dst_shard) {}

  int src_shard() const { return src_shard_; }
  int dst_shard() const { return dst_shard_; }

  void send(Time at, void (*deliver)(void*, void*),
            void (*dispose)(void*, void*), void* ctx, void* payload) {
    send(at, kUnkeyedTieKey, deliver, dispose, ctx, payload);
  }

  void send(Time at, std::uint64_t key, void (*deliver)(void*, void*),
            void (*dispose)(void*, void*), void* ctx, void* payload) {
    CrossShardMsg msg;
    msg.at = at;
    msg.key = key;
    msg.seq = next_seq_++;  // stamped before batching: order is send order
    msg.deliver = deliver;
    msg.dispose = dispose;
    msg.ctx = ctx;
    msg.payload = payload;
    if (batch_depth_ <= 1) {
      queue_.push(msg);
      return;
    }
    pending_.push_back(msg);
    if (pending_.size() >= batch_depth_) flush();
  }

  // Producer side only: sets the handoff batch depth. Depth 1 publishes each
  // send immediately (the pre-batching behavior); depth n buffers up to n
  // messages and publishes them as one burst. Must be called before traffic.
  void set_batch_depth(int depth) {
    batch_depth_ = depth < 1 ? 1 : static_cast<std::size_t>(depth);
    if (batch_depth_ > 1) pending_.reserve(batch_depth_);
  }

  // Producer side only: publishes any buffered sends. The executor calls
  // this before every safe-time publication / barrier so consumers always
  // see the complete mail stream up to the producer's clock.
  void flush() {
    if (pending_.empty()) return;
    queue_.push_burst(pending_.data(), pending_.size());
    pending_.clear();
  }

  template <typename Vec>
  std::size_t drain(Vec& out) {
    return queue_.drain(out);
  }

  // Reclaims payloads that were produced but never delivered (the scenario
  // was destroyed with packets still crossing a shard boundary), including
  // sends still sitting in the producer-side batch buffer.
  ~Mailbox() {
    struct Sink {
      void push_back(const CrossShardMsg& m) {
        if (m.dispose != nullptr) m.dispose(m.ctx, m.payload);
      }
    } sink;
    for (const CrossShardMsg& m : pending_) sink.push_back(m);
    queue_.drain(sink);
  }

 private:
  int src_shard_;
  int dst_shard_;
  std::uint64_t next_seq_ = 0;  // producer-private
  std::size_t batch_depth_ = 1;
  std::vector<CrossShardMsg> pending_;  // producer-private batch buffer
  SpscQueue queue_;
};

}  // namespace acdc::sim::par
