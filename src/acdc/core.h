// Shared state of one AC/DC vSwitch instance: configuration, the flow
// table, the policy engine and counters. SenderModule / ReceiverModule / the
// vSwitch datapath all operate on this core.
#pragma once

#include <cstdint>

#include "acdc/flow_table.h"
#include "acdc/policy.h"
#include "acdc/virtual_cc.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace acdc::vswitch {

struct AcdcConfig {
  // Master switch. true = enforce (§3): mark egress ECT(0) so switches mark
  // instead of drop (§3.2), strip CE/ECT from data before the receiving VM
  // sees it (§3.2), strip ECN-Echo from ACKs before the sending VM sees it
  // (§3.3: hiding feedback stops the VM stack from reducing on its own) and
  // rewrite RWND. false = observer mode (Fig. 9's tracking methodology):
  // compute windows and run the feedback machinery but leave the VM's
  // traffic untouched, so the host stack drives congestion control itself.
  bool enforce = true;
  // Fabric MTU; a PACK that would push an ACK past this becomes a FACK.
  std::int64_t mtu_bytes = 9000;
  // Enforced-window floor; 0 means one MSS.
  std::int64_t min_rwnd_bytes = 0;
  VccConfig vcc{};
  // Timeout inference (§3.1): a periodic scan visits stalled flows; a flow
  // whose RFC 6298 estimator has a sample times out at its own RTO (within
  // the bounds in sender_module.cc), sample-less flows fall back to the
  // fixed inactivity_timeout.
  bool infer_timeouts = true;
  sim::Time inactivity_timeout = sim::milliseconds(40);
  // §3.3: on an inferred timeout, generate duplicate ACKs toward the VM to
  // trigger its fast retransmit (useful when the VM RTO is large).
  bool inject_dupacks_on_timeout = false;
  sim::Time gc_interval = sim::seconds(1);
  sim::Time fin_linger = sim::seconds(1);
  // §4 memory bound: cap on flow-table entries (0 = unbounded). At the cap
  // a new flow evicts the oldest-idle entry; under SYN churn this is what
  // keeps per-flow state bounded.
  std::int64_t flow_table_max_entries = 0;
};

struct AcdcStats {
  std::int64_t egress_data_packets = 0;
  std::int64_t ingress_data_packets = 0;
  std::int64_t acks_processed = 0;
  std::int64_t packs_attached = 0;
  std::int64_t facks_sent = 0;
  std::int64_t facks_consumed = 0;
  std::int64_t windows_lowered = 0;
  std::int64_t policed_drops = 0;
  std::int64_t inferred_timeouts = 0;
  std::int64_t injected_dupacks = 0;
  std::int64_t injected_window_updates = 0;
  std::int64_t rtt_samples = 0;
  // Feedback deltas clamped after a remote flow-entry eviction restarted
  // the receiver's running totals (marked delta exceeded total delta).
  std::int64_t feedback_resyncs = 0;
  // Per-direction single-entry lookup caches (see AcdcCore::entry/find).
  std::int64_t flow_cache_hits = 0;
  std::int64_t flow_cache_misses = 0;
};

struct AcdcCore {
  sim::Simulator* sim = nullptr;
  AcdcConfig config;
  FlowTable table;
  PolicyEngine policy;
  AcdcStats stats;

  // Flight-recorder tap (off by default; one branch per hook).
  obs::Tap tap;

  // Single-entry lookup caches, one per datapath direction so the four hot
  // call sites never evict each other. A slot remembers the last key looked
  // up there together with the generation-checked handle it resolved to;
  // a repeat of the same key revalidates with one bounds check, one slot
  // word load and one integer compare (FlowTable::deref) — no hashing, no
  // probing. Erase, GC, eviction, rehash and a neighbour's backward shift
  // all leave the handle's slot naming no record or another flow's, so a
  // stale slot simply fails deref and falls through to a real lookup. This
  // replaces the old whole-table version counter: invalidation is per-flow
  // and cannot be forgotten, and a membership change elsewhere in the table
  // no longer evicts unrelated cache slots.
  struct FlowCacheSlot {
    FlowKey key{};
    FlowHandle handle{};
  };
  static constexpr int kCacheSndEgress = 0;      // sender module, data out
  static constexpr int kCacheSndIngressAck = 1;  // sender module, ACK in
  static constexpr int kCacheRcvIngressData = 2; // receiver module, data in
  static constexpr int kCacheRcvEgressAck = 3;   // receiver module, ACK out
  static constexpr int kCacheSlots = 4;
  FlowCacheSlot flow_cache[kCacheSlots];

  // The cache probe both lookups start with: the slot's flow when `key`
  // repeats its key and the handle still resolves, else an empty ref.
  // Counts the hit or the miss.
  FlowRef cached(const FlowKey& key, const FlowCacheSlot& c) {
    if (c.handle.valid() && c.key == key) {
      FlowRef f = table.deref(c.handle);
      if (f) {
        ++stats.flow_cache_hits;
        return f;
      }
    }
    ++stats.flow_cache_misses;
    return {};
  }

  // Looks up or creates the flow for `key`. On creation the authoritative
  // FlowPolicy lands in the cold record and load_policy() binds it. `slot`
  // selects which direction cache fronts the table lookup.
  FlowRef entry(const FlowKey& key, int slot) {
    FlowCacheSlot& c = flow_cache[slot];
    if (FlowRef f = cached(key, c)) return f;
    FlowRef f = table.find_or_create(key, sim->now());
    if (f.created) {
      f.cold->policy = policy.lookup(*f.key);
      load_policy(f);
    }
    c.key = key;
    c.handle = f.handle;
    return f;
  }

  // Cached find. Unlike the old version-stamped cache this never caches
  // absence — there is no table-wide epoch to tie a negative result to —
  // so misses always probe. The hot directions (established flows) still
  // hit the handle path.
  FlowRef find(const FlowKey& key, int slot) {
    FlowCacheSlot& c = flow_cache[slot];
    if (FlowRef f = cached(key, c)) return f;
    FlowRef f = table.find(key);
    if (f) {
      c.key = key;
      c.handle = f.handle;
    }
    return f;
  }

  // Copies the fields of the cold record's policy that the per-packet path
  // reads into the hot record and initialises the flow's virtual CC.
  void load_policy(const FlowRef& f) {
    const FlowPolicy& p = f.cold->policy;
    f.hot->cc_kind = p.kind;
    f.hot->beta = p.beta;
    f.hot->max_rwnd_bytes = packed_rwnd_cap(p.max_rwnd_bytes);
    f.hot->police = p.police;
    virtual_cc_for(p.kind).init(*f.hot);
  }

  std::int64_t min_rwnd_bytes(const FlowHot& s) const {
    return config.min_rwnd_bytes > 0 ? config.min_rwnd_bytes : s.mss;
  }

  // Restarts a flow in place for a recycled 4-tuple (fresh SYN over a
  // FIN-marked entry the GC has not swept yet). Key, record, slot, handle,
  // policy and the LRU position survive; all per-incarnation state is
  // re-initialised.
  void reset_entry(const FlowRef& f) {
    f.hot->reset_runtime();
    f.cold->created_at = sim->now();
    f.cold->last_timeout_at = sim::kNoTime;
    f.cold->telem = {};
    load_policy(f);
  }
};

}  // namespace acdc::vswitch
