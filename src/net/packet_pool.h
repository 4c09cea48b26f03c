// Packet freelist: steady-state forwarding recycles Packet objects instead
// of hitting operator new/delete once per packet. The pool is thread-local
// so every simulator shard (one worker thread each, see sim/parallel) owns
// a private freelist and the datapath hot path stays lock-free; a packet
// that crosses shards via a mailbox is simply recycled into the receiving
// thread's pool. Pools are intentionally leaked and kept reachable through
// a process-wide registry, so destruction order can never invalidate a late
// release and LeakSanitizer stays quiet.
//
// Debuggability:
//  - ACDC_PACKET_POOL=0 (or "off") disables recycling entirely — every
//    release becomes a real delete, so heap tools see the original lifetime.
//  - Under AddressSanitizer, pooled packets are poisoned while they sit in
//    the freelist, so a use-after-recycle faults exactly like a
//    use-after-free would (this is what the CI pooled-datapath ASan sweep
//    leans on).
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace acdc::obs {
class MetricsRegistry;
}

namespace acdc::net {

class PacketPool {
 public:
  struct Stats {
    std::int64_t fresh_allocs = 0;  // freelist empty -> operator new
    std::int64_t reuses = 0;        // served from the freelist
    std::int64_t releases = 0;      // returned to the freelist
    std::int64_t deletes = 0;       // pool disabled or freelist at cap
  };

  // The calling thread's pool (created and registered on first use).
  static PacketPool& instance();

  // Returns a default-state Packet (fields reset, grown option storage
  // retained). Caller owns it; release() or PacketDeleter returns it.
  Packet* acquire();
  void release(Packet* p) noexcept;

  const Stats& stats() const { return stats_; }
  std::size_t free_count() const { return freelist_.size(); }
  bool enabled() const { return enabled_; }

  // Packets this pool has handed out minus packets returned to it. Negative
  // on a thread that mostly frees packets born on other shards; the sum
  // over all pools is the process-wide in-flight packet count.
  std::int64_t live() const { return live_; }
  std::int64_t live_high_water() const { return hwm_; }

  // Frees every pooled packet: test isolation between measurements, so
  // PacketPoolTest.RecycledPacketIsPristine and
  // PacketPoolTest.SteadyStateReusesInsteadOfAllocating start from an
  // empty freelist.
  void trim() noexcept;

  // Registers `net.pool_free`, `net.pool_live` and `net.pool_hwm` gauges
  // that read the pool of whichever thread samples the registry — with
  // per-shard registries sampled on their own worker threads, each registry
  // reports its shard's pool.
  static void register_metrics(obs::MetricsRegistry& registry);

 private:
  PacketPool();
  ~PacketPool() = delete;  // leaked, reachable via the registry

  // Bounds pool memory under pathological churn; past this, release deletes.
  static constexpr std::size_t kMaxPooled = 1 << 16;

  std::vector<Packet*> freelist_;
  Stats stats_;
  std::int64_t live_ = 0;
  std::int64_t hwm_ = 0;
  bool enabled_ = true;
};

}  // namespace acdc::net
