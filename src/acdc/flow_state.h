// Per-flow connection-tracking state reconstructed by the vSwitch (§3.1,
// Fig. 4) plus the virtual congestion-control variables (§3.2) and the
// receiver-side feedback counters. One record exists per flow *direction*;
// a TCP connection therefore has two, as in the paper (§4).
//
// The state is split for cache lines, not convenience (DESIGN.md §14):
//
//   FlowHot  — the record a table slot word names: probe identity (key +
//              generation), LRU links, and everything the per-packet path
//              touches — sequence tracking, feedback counters, RWND-rewrite
//              state, the CC scalars, the RFC 6298 RTT estimator and a
//              packed copy of the policy fields the datapath reads per
//              packet. Exactly four cache lines; the first two cover the
//              universal data/ACK bookkeeping, the rest is per-window
//              state and the per-kind CC aux union.
//   FlowCold — lifecycle and telemetry: creation time, the authoritative
//              FlowPolicy, the last INT stamp and timeout forensics. Only
//              the GC, the inactivity scan and handshake packets read it.
//
// FlowTable stores the halves in parallel dense pools, indexed by the
// record number its slot words carry; callers address a flow through a
// generation-checked FlowHandle and work on it through a FlowRef.
#pragma once

#include <cstddef>
#include <cstdint>

#include "acdc/flow_key.h"
#include "acdc/policy.h"
#include "acdc/rtt_estimator.h"
#include "net/packet.h"
#include "sim/time.h"
#include "tcp/seq.h"

namespace acdc::vswitch {

// Virtual CUBIC epoch state. `epoch_valid` replaces the old kNoTime
// sentinel so that all-zero bytes are a valid "fresh epoch" encoding — the
// whole CcState union can be reset with one zero fill.
struct CubicCc {
  double w_last_max;
  double k;
  double origin;
  double tcp_wnd;
  sim::Time epoch_start;
  bool epoch_valid;
};

// Virtual PowerTCP gradient state: the previous telemetry sample the queue
// derivative is differenced against (DESIGN.md §13), and the normalized
// power smoothed over the base-RTT timescale. Zero bytes are valid here
// too: prev_valid == false routes the first telemetry ACK through the
// direct-assignment path, which overwrites `power` before any read.
struct PowerCc {
  double power;
  std::uint32_t prev_qlen_bytes;
  std::uint32_t prev_ts_us;
  bool prev_valid;
};

// Per-kind CC aux state. A flow runs exactly one algorithm, so the variants
// overlay; DCTCP and NewReno use neither. Zero-filled on (re)init.
union CcState {
  CubicCc cubic;
  PowerCc pt;
};

// Hot half: the only record the per-packet path dereferences in steady
// state. Kept trivially copyable so FlowTable can move it into a grown pool
// with a plain copy. The table's probe identity (key + generation) and the
// LRU links are embedded here rather than kept in side arrays: at 1M+
// resident flows every random lane is a separate DRAM line AND a separate
// 4 KB page, so a lookup reads one 8-byte slot word (hash bits + record
// index) and then one record line that holds the key to confirm, the
// generation and the state — two random lines, where identity in a side
// lane would make three, and two page walks rather than three where the
// kernel grants no huge pages (table_array.h). Records are dense, not
// slot-indexed: at 10M flows the pools write live × 320 B (3.2 GB) instead
// of capacity × 320 B (16.8M slots, 5.4 GB).
//
// The layout is line-budgeted: every field the universal per-packet path
// touches (identity, sequence tracking, feedback, enforcement, the CC
// scalars, the RTT estimator) packs into the first TWO cache lines — the
// static_asserts below pin that. The third line holds per-window and
// receiver-direction state (the DCTCP alpha is read/written once per
// window, beta once per reduction, the rcv_* counters only on ingress
// data), and the per-kind CC aux union follows it. The burst path's
// stage-2 prefetch warms exactly lines one and two; the rest fault on the
// per-window/per-direction paths that need them. Sizes are chosen for the
// budget: window feedback accumulators are u32 (bounded by one RTT of
// data), and the enforcement copies are 32-bit because a TCP window can
// never exceed 2^30 bytes (65535 << the wscale cap of 14).
struct alignas(64) FlowHot {
  // ======== Line 1: identity + per-packet bookkeeping ========
  // ---- Table-owned probe identity (written only by FlowTable) ----
  FlowKey key{};
  std::uint32_t gen = 0;  // never 0 in a live record; never reused

  // ---- Reconstructed TCP variables (Fig. 4) ----
  tcp::Seq snd_una = 0;
  tcp::Seq snd_nxt = 0;
  std::uint32_t dupacks = 0;

  // ---- Feedback accounting (running totals from PACK/FACK, §3.2) ----
  std::uint32_t fb_total = 0;
  std::uint32_t fb_marked = 0;

  // ---- Observation-window boundary (one RTT of data, Fig. 5) ----
  tcp::Seq cc_window_end = 0;

  // ---- §3.3 injection template: last ACK seen toward the VM ----
  tcp::Seq last_ack_seq = 0;
  std::uint16_t last_ack_raw_window = 0;

  // ---- Handshake-derived parameters (§3.3) ----
  std::uint16_t mss = 1460;
  std::uint8_t peer_wscale = 0;

  // Packed copy of FlowPolicy::kind — virtual_cc_for() runs per ACK; the
  // authoritative policy lives in FlowCold.
  VccKind cc_kind = VccKind::kDctcp;

  // ---- Flags ----
  bool seq_valid : 1 = false;  // set once the first egress segment is seen
  bool fb_valid : 1 = false;
  bool peer_wscale_valid : 1 = false;
  bool window_boundary_valid : 1 = false;
  bool reduced_this_window : 1 = false;
  bool ack_seen : 1 = false;
  bool fin_seen : 1 = false;          // FIN or RST: fast-GC candidate
  bool police : 1 = false;            // policy copy
  bool vm_requested_ecn : 1 = false;  // local VM sent ECN-setup SYN
  bool vm_ecn_negotiated : 1 = false; // both VMs agreed on ECN
  bool rcv_active : 1 = false;        // data seen in the ingress direction
  bool rcv_vm_ecn_negotiated : 1 = false;
  bool rcv_sender_vm_requested_ecn : 1 = false;  // NS bit off the SYN
  bool rcv_telem_valid : 1 = false;   // FlowCold::telem holds a fresh stamp
  bool rtt_sample_pending : 1 = false;

  // Exponential RTO backoff (shift count); reset by each completed sample.
  std::uint8_t rto_backoff = 0;

  // Stamped by FlowTable::touch on every attributed packet; the LRU order
  // follows it, so the eviction head is always the oldest-idle flow.
  sim::Time last_activity = 0;

  // ======== Line 2: enforcement + CC scalars + RTT estimation ========
  // ---- Enforcement bookkeeping ----
  std::int32_t last_enforced_rwnd = -1;  // clamped at 2^31-1; -1 = never
  std::uint32_t max_rwnd_bytes = 0;      // policy copy; 0 = uncapped

  // ---- Virtual congestion control ----
  double cwnd_bytes = 0.0;
  double ssthresh_bytes = 1e18;
  std::uint32_t win_total = 0;     // feedback bytes in the current window
  std::uint32_t win_marked = 0;

  // ---- RFC 6298 RTT estimation (rtt_estimator.h) ----
  RttEstimator rtt;
  tcp::Seq rtt_sample_end = 0;        // sampled segment's end sequence
  sim::Time rtt_sample_sent_at = 0;

  // ---- Table-owned eviction order (written only by FlowTable) ----
  // Record indices; lru_next also links a freed record into the free list.
  std::uint32_t lru_prev = 0;
  std::uint32_t lru_next = 0;

  // ======== Line 3: per-window + receiver-direction state ========
  double beta = 1.0;   // policy copy (Eq. 1 QoS priority); read on reduction
  double alpha = 1.0;  // DCTCP EWMA; updated once per window

  // ---- Receiver-side counters (ingress data direction) ----
  std::uint32_t rcv_total_bytes = 0;  // wrap mod 2^32 on the wire
  std::uint32_t rcv_marked_bytes = 0;

  // ---- Per-kind CC aux state (CUBIC / PowerTCP only) ----
  CcState cc{};

  // Re-initialises every per-incarnation field for a recycled 4-tuple,
  // preserving the table-owned identity (key, generation, LRU links) and
  // the activity stamp the eviction order keys on.
  void reset_runtime() {
    FlowHot fresh;
    fresh.key = key;
    fresh.gen = gen;
    fresh.lru_prev = lru_prev;
    fresh.lru_next = lru_next;
    fresh.last_activity = last_activity;
    *this = fresh;
  }
};

static_assert(offsetof(FlowHot, last_enforced_rwnd) == 64,
              "identity + per-packet bookkeeping must fill exactly line 1");
static_assert(offsetof(FlowHot, beta) == 128,
              "universal per-packet fields must fit the first two lines");

// Narrows a policy's 64-bit RWND cap into FlowHot's packed 32-bit copy.
// Saturating is lossless in effect: a cap at or past 4 GB stays non-zero
// (still "capped") but can never bind, because an enforced window tops out
// at 2^30 bytes.
inline std::uint32_t packed_rwnd_cap(std::int64_t max_rwnd_bytes) {
  if (max_rwnd_bytes <= 0) return 0;
  if (max_rwnd_bytes > static_cast<std::int64_t>(UINT32_MAX)) {
    return UINT32_MAX;
  }
  return static_cast<std::uint32_t>(max_rwnd_bytes);
}

// Cold half: off the per-packet path. Touched on handshake, GC, the
// inactivity scan and telemetry echo.
struct FlowCold {
  FlowPolicy policy;  // authoritative; FlowHot carries the per-packet copy
  sim::Time created_at = 0;
  // Inferred-timeout bookkeeping (one reaction per stall).
  sim::Time last_timeout_at = sim::kNoTime;
  // Latest INT telemetry observed on ingress data (net/telemetry.h); echoed
  // to the sender inside the extended PACK/FACK option and then stripped
  // from the packet before the VM. Valid iff FlowHot::rcv_telem_valid.
  net::TelemetryStamp telem;
};

static_assert(sizeof(FlowHot) == 256,
              "FlowHot is exactly four cache lines");

}  // namespace acdc::vswitch
