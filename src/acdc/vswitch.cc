#include "acdc/vswitch.h"

#include <utility>

namespace acdc::vswitch {

namespace {

// How often the timeout-inference scan visits stalled flows (§3.1).
constexpr sim::Time kInactivityScanInterval = sim::milliseconds(10);
// The GC removes any entry idle this long, FIN-marked or not (§4).
constexpr sim::Time kIdleTimeout = sim::seconds(60);

// Data-direction traffic, which the sender module tracks on egress and the
// receiver module counts on ingress. RSTs count so the sender module sees
// them and can mark the entry for fast GC (an aborted flow never sends a
// FIN).
bool carries_data(const net::Packet& p) {
  return p.payload_bytes > 0 || p.tcp.flags.syn || p.tcp.flags.fin ||
         p.tcp.flags.rst;
}

}  // namespace

AcdcVswitch::AcdcVswitch(sim::Simulator* sim, AcdcConfig config)
    : sender_(core_), receiver_(core_) {
  core_.sim = sim;
  core_.config = config;
  if (config.flow_table_max_entries > 0) {
    core_.table.set_limit(
        static_cast<std::size_t>(config.flow_table_max_entries));
  }
}

void AcdcVswitch::ensure_timers() {
  if (core_.config.infer_timeouts && !scan_armed_) {
    scan_armed_ = true;
    core_.sim->schedule(kInactivityScanInterval,
                        [this] { run_inactivity_scan(); });
  }
  if (!gc_armed_) {
    gc_armed_ = true;
    core_.sim->schedule(core_.config.gc_interval, [this] { run_gc(); });
  }
}

void AcdcVswitch::run_inactivity_scan() {
  scan_armed_ = false;
  const int fired = sender_.infer_timeouts(core_.sim->now());
  if (fired > 0 && core_.config.inject_dupacks_on_timeout) {
    core_.table.for_each([this](const FlowRef& f) {
      if (f.cold->last_timeout_at == core_.sim->now()) {
        send_dupacks(*f.key, 3);
      }
    });
  }
  if (core_.table.size() > 0) {
    scan_armed_ = true;
    core_.sim->schedule(kInactivityScanInterval,
                        [this] { run_inactivity_scan(); });
  }
}

void AcdcVswitch::run_gc() {
  gc_armed_ = false;
  core_.table.collect_garbage(core_.sim->now(), kIdleTimeout,
                              core_.config.fin_linger);
  if (core_.table.size() > 0) {
    gc_armed_ = true;
    core_.sim->schedule(core_.config.gc_interval, [this] { run_gc(); });
  }
}

void AcdcVswitch::handle_egress(net::PacketPtr packet) {
  ensure_timers();
  if (carries_data(*packet) && !sender_.process_egress(*packet)) {
    return;  // policed
  }
  if (packet->tcp.flags.ack) {
    receiver_.process_egress_ack(
        *packet, [this](net::PacketPtr fack) { send_down(std::move(fack)); });
  }
  // §3.2: ALL egress packets are marked ECN-capable — including SYNs and
  // pure ACKs — so no packet of a managed flow is WRED-dropped where it
  // could have been marked. The peer's receiver module strips the bits.
  if (core_.config.enforce && packet->ip.ecn == net::Ecn::kNotEct) {
    packet->ip.ecn = net::Ecn::kEct0;
  }
  send_down(std::move(packet));
}

void AcdcVswitch::handle_ingress(net::PacketPtr packet) {
  ensure_timers();
  if (carries_data(*packet)) receiver_.process_ingress_data(*packet);
  if (packet->tcp.flags.ack || packet->acdc_fack) {
    if (!sender_.process_ingress_ack(*packet)) {
      return;  // FACK consumed
    }
  }
  send_up(std::move(packet));
}

// How many packets ahead of processing each prefetch stage runs. Stage 1
// (slot words) leads stage 2 by enough per-packet work that the word line
// has landed when stage 2 scans it; stage 2 (the hot lines of the record
// the resolved word names) leads processing by enough to cover a DRAM
// load (~100ns) without the in-flight window (~6 lines/packet) outrunning
// L1 or the core's miss-handling capacity.
constexpr std::size_t kStage1Depth = 16;
constexpr std::size_t kStage2Depth = 8;

void AcdcVswitch::prefetch_stage1(const net::Packet& p) const {
  // Warm the slot words every probe of this packet starts from — the
  // data-direction key for data/handshake packets, the reversed key for
  // ACK processing. For the reversed key of a piggybacked ACK this is the
  // whole warming story: it usually belongs to a unidirectional flow whose
  // reverse entry doesn't exist, and the slot words are all an absent-key
  // probe reads; when the reverse entry does exist, its own data packets
  // keep it warm.
  const FlowKey key = FlowKey::from_packet(p);
  if (carries_data(p)) core_.table.prefetch_probe(key);
  if (p.tcp.flags.ack || p.acdc_fack) {
    core_.table.prefetch_probe(key.reversed());
  }
}

void AcdcVswitch::prefetch_stage2(const net::Packet& p) const {
  // Resolve each expected-hit probe on the stage-1-warmed slot words and
  // warm the lines of the record the lookup will actually land on.
  const FlowKey key = FlowKey::from_packet(p);
  if (carries_data(p)) {
    core_.table.prefetch(key);
  } else if (p.tcp.flags.ack || p.acdc_fack) {
    // A pure ACK's whole purpose is the reversed-key entry — warm it fully.
    core_.table.prefetch(key.reversed());
  }
}

template <typename Handle>
void AcdcVswitch::pipeline_burst(net::PacketPtr* packets, std::size_t count,
                                 Handle handle) {
  // Each iteration issues stage-1 prefetches kStage1Depth packets ahead and
  // stage-2 prefetches kStage2Depth ahead, then runs the exact per-packet
  // pipeline on the current one, in arrival order. Prefetching mutates
  // nothing, so this is provably equivalent to `count` single-packet
  // deliveries.
  for (std::size_t i = 0; i < std::min(kStage1Depth, count); ++i) {
    prefetch_stage1(*packets[i]);
  }
  for (std::size_t i = 0; i < std::min(kStage2Depth, count); ++i) {
    prefetch_stage2(*packets[i]);
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kStage1Depth < count) prefetch_stage1(*packets[i + kStage1Depth]);
    if (i + kStage2Depth < count) prefetch_stage2(*packets[i + kStage2Depth]);
    handle(std::move(packets[i]));
  }
}

void AcdcVswitch::handle_egress_burst(net::PacketPtr* packets,
                                      std::size_t count) {
  pipeline_burst(packets, count,
                 [this](net::PacketPtr p) { handle_egress(std::move(p)); });
}

void AcdcVswitch::handle_ingress_burst(net::PacketPtr* packets,
                                       std::size_t count) {
  pipeline_burst(packets, count,
                 [this](net::PacketPtr p) { handle_ingress(std::move(p)); });
}

net::PacketPtr AcdcVswitch::craft_ack_toward_vm(const FlowRef& f) const {
  // Build an ACK as the remote end would have sent it for data flow
  // *f.key (so it arrives "from" the receiver).
  auto p = net::make_packet();
  p->ip.src = f.key->dst_ip;
  p->ip.dst = f.key->src_ip;
  p->tcp.src_port = f.key->dst_port;
  p->tcp.dst_port = f.key->src_port;
  p->tcp.flags.ack = true;
  p->tcp.seq = 0;  // pure ACK; sequence is not meaningful for window updates
  p->tcp.ack_seq = f.hot->last_ack_seq;
  p->tcp.window_raw = f.hot->last_ack_raw_window;
  return p;
}

bool AcdcVswitch::send_window_update(const FlowKey& key) {
  FlowRef f = core_.table.find(key);
  if (!f || !f.hot->ack_seen) return false;
  net::PacketPtr p = craft_ack_toward_vm(f);
  const std::uint8_t scale =
      f.hot->peer_wscale_valid ? f.hot->peer_wscale : 0;
  std::int64_t raw = f.hot->last_enforced_rwnd >= 0
                         ? f.hot->last_enforced_rwnd >> scale
                         : f.hot->last_ack_raw_window;
  if (raw <= 0) raw = 1;
  p->tcp.window_raw =
      static_cast<std::uint16_t>(std::min<std::int64_t>(raw, 65535));
  ++core_.stats.injected_window_updates;
  if (core_.tap) {
    core_.tap.emit(obs::EventType::kWindowUpdateInjected, core_.sim->now(),
                   key.flow(), p->tcp.window_raw);
  }
  send_up(std::move(p));
  return true;
}

bool AcdcVswitch::send_dupacks(const FlowKey& key, int count) {
  FlowRef f = core_.table.find(key);
  if (!f || !f.hot->ack_seen) return false;
  for (int i = 0; i < count; ++i) {
    net::PacketPtr p = craft_ack_toward_vm(f);
    // A dupACK must repeat snd_una and the last advertised window exactly.
    p->tcp.ack_seq = f.hot->snd_una;
    ++core_.stats.injected_dupacks;
    send_up(std::move(p));
  }
  if (core_.tap) {
    core_.tap.emit(obs::EventType::kDupackInjected, core_.sim->now(),
                   key.flow(), count);
  }
  return true;
}

void AcdcVswitch::attach_observability(ObsHooks hooks) {
  core_.tap = obs::Tap(hooks.recorder, hooks.name);
  if (hooks.metrics != nullptr) register_metrics(*hooks.metrics, hooks.name);
}

void AcdcVswitch::register_metrics(obs::MetricsRegistry& registry,
                                   const std::string& prefix) const {
  const AcdcStats& s = core_.stats;
  registry.register_counter(prefix + ".egress_data_packets",
                            &s.egress_data_packets);
  registry.register_counter(prefix + ".ingress_data_packets",
                            &s.ingress_data_packets);
  registry.register_counter(prefix + ".acks_processed", &s.acks_processed);
  registry.register_counter(prefix + ".packs_attached", &s.packs_attached);
  registry.register_counter(prefix + ".facks_sent", &s.facks_sent);
  registry.register_counter(prefix + ".facks_consumed", &s.facks_consumed);
  registry.register_counter(prefix + ".windows_lowered", &s.windows_lowered);
  registry.register_counter(prefix + ".policed_drops", &s.policed_drops);
  registry.register_counter(prefix + ".inferred_timeouts",
                            &s.inferred_timeouts);
  registry.register_counter(prefix + ".injected_dupacks",
                            &s.injected_dupacks);
  registry.register_counter(prefix + ".injected_window_updates",
                            &s.injected_window_updates);
  registry.register_counter(prefix + ".rtt_samples", &s.rtt_samples);
  registry.register_counter(prefix + ".flow_cache_hits", &s.flow_cache_hits);
  registry.register_counter(prefix + ".flow_cache_misses",
                            &s.flow_cache_misses);
  registry.register_gauge(prefix + ".flow_entries", [this] {
    return static_cast<double>(core_.table.size());
  });
  // Flow-table lifecycle counters: under churn these are the signals that
  // per-flow state stays bounded (gc/evictions climbing, entries flat).
  const FlowTable::Stats& ft = core_.table.stats();
  registry.register_counter(prefix + ".flow_inserts", &ft.inserts);
  registry.register_counter(prefix + ".flow_removals", &ft.removals);
  registry.register_counter(prefix + ".flow_gc_removed", &ft.gc_removed);
  registry.register_counter(prefix + ".flow_evictions", &ft.evictions);
  registry.register_counter(prefix + ".flow_rehashes", &ft.rehashes);
}

}  // namespace acdc::vswitch
