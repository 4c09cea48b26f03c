// acdc_perf — the datapath and engine perf driver. Runs every perf section
// in a fixed order, writes BENCH_datapath.json (schema in DESIGN.md §9) and,
// under --check, fails the run on any regression gate (perf_report.cc).
//
//   acdc_perf                  # full run, writes ./BENCH_datapath.json
//   acdc_perf --quick          # CI-sized iteration counts
//   acdc_perf --check          # also apply the regression gates
//   acdc_perf --out PATH       # choose the output path
//
// Sections, in run order (run_all): pingpong, 1024-flow multiflow, timer
// events, tracing A/B, parallel sweep, churn, flow-table occupancy sweep,
// closed-loop service, and the paper's Figs. 11/12 per-packet cost cases.
// An interposing operator new/delete (alloc_probe.cc) counts heap traffic,
// so "allocation-free steady state" is a measured number. Failed sanity
// checks (a section that did no work, a bound the simulator must hold)
// exit non-zero with or without --check, after the JSON is written.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "acdc/vswitch.h"
#include "alloc_probe.h"
#include "app/service.h"
#include "exp/dumbbell.h"
#include "exp/leaf_spine.h"
#include "exp/scenario.h"
#include "forensics/delay_analyzer.h"
#include "net/wire.h"
#include "obs/merge.h"
#include "perf_report.h"
#include "sim/parallel/executor.h"
#include "sim/simulator.h"
#include "workload/churn.h"

namespace acdc::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Failed sanity checks; any one makes the run exit non-zero.
int g_errors = 0;

void error(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

void error(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::fputs("ERROR: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputs("\n", stderr);
  va_end(args);
  ++g_errors;
}

// ---- Iteration profiles ---------------------------------------------------

struct ServiceArm {
  const char* suffix;  // appended to every key of the arm ("" = single arm)
  std::int64_t users;
  std::int64_t think_ms;
};

// The full ladder holds offered load at ~50k req/s while sessions scale
// 100x: think time grows with the population, so the fabric never
// oversubscribes and the arms isolate the cost of concurrency.
constexpr ServiceArm kServiceQuickArm[] = {{"", 2'000, 200}};
constexpr ServiceArm kServiceLadder[] = {{"_10k", 10'000, 200},
                                         {"_100k", 100'000, 2'000},
                                         {"_1m", 1'000'000, 20'000}};

struct Profile {
  const char* name;
  std::uint64_t packet_iters;  // pingpong and every Figs. 11/12 case
  std::uint64_t multiflow_iters;
  std::uint64_t event_iters;
  std::int64_t overhead_ms;  // simulated horizon of the tracing A/B
  std::int64_t parallel_ms;  // simulated horizon of the parallel sweep
  std::int64_t churn_ms;     // churn arrival window; +1 s drain after
  std::uint64_t occupancy_packets;  // measured per occupancy point
  bool occupancy_10m;  // add the 10M point when MemAvailable allows
  std::int64_t service_ms;  // service issue window; deadline + drain after
  std::span<const ServiceArm> service_arms;
};

// The occupancy quick count is still long enough per trial to reach cache
// steady state at 1M flows: a trial shorter than one last-level-cache
// refill (~4M lines on a large shared L3) measures the warm-up transient
// and understates the large arms.
constexpr Profile kQuick{"quick",   400'000, 400'000,   200'000, 100,
                         10,        800,     1'200'000, false,   600,
                         kServiceQuickArm};
constexpr Profile kFull{"full",    2'000'000, 2'000'000, 1'000'000, 200,
                        40,        3'000,     1'500'000, true,      2'000,
                        kServiceLadder};

// ---- Synthetic datapath traffic -------------------------------------------

constexpr std::uint32_t kSegment = 1448;

class NullSink : public net::PacketSink {
 public:
  void receive(net::PacketPtr packet) override { last_ = packet.get(); }

 private:
  const net::Packet* last_ = nullptr;  // defeat dead-code elimination
};

// Keeps `value` observable so the compiler cannot drop the work behind it.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

net::IpAddr vm_ip() { return net::make_ip(10, 0, 0, 1); }

net::IpAddr peer_ip(std::uint32_t flow) {
  // Unique per flow up to ~16.7M: the flow index spread over three octets.
  return net::make_ip(10, static_cast<std::uint8_t>(1 + (flow >> 16)),
                      static_cast<std::uint8_t>((flow >> 8) & 0xff),
                      static_cast<std::uint8_t>(flow & 0xff));
}

net::TcpPort flow_port(std::uint32_t flow) {
  return static_cast<net::TcpPort>(10'000 + (flow % 40'000));
}

net::PacketPtr make_data_packet(std::uint32_t flow, std::uint32_t seq) {
  auto p = net::make_packet();
  p->ip.src = vm_ip();
  p->ip.dst = peer_ip(flow);
  p->tcp.src_port = flow_port(flow);
  p->tcp.dst_port = 80;
  p->tcp.seq = seq;
  p->tcp.flags.ack = true;
  p->tcp.ack_seq = 1;
  p->payload_bytes = kSegment;
  return p;
}

// An ACK whose PACK feedback reports every byte up to ack_seq, 1/8 marked.
net::PacketPtr make_ack_packet(std::uint32_t flow, std::uint32_t ack_seq) {
  auto p = net::make_packet();
  p->ip.src = peer_ip(flow);
  p->ip.dst = vm_ip();
  p->tcp.src_port = 80;
  p->tcp.dst_port = flow_port(flow);
  p->tcp.flags.ack = true;
  p->tcp.ack_seq = ack_seq;
  p->tcp.window_raw = 30'000;
  p->tcp.options.acdc = net::AcdcFeedback{ack_seq, ack_seq / 8};
  return p;
}

// A vSwitch between two null sinks, primed with one sender-side flow-table
// entry per flow by an egress data packet of `first_segment` bytes.
struct Harness {
  sim::Simulator sim;
  vswitch::AcdcVswitch vs{&sim, vswitch::AcdcConfig{}};
  NullSink down;
  NullSink up;
  std::uint32_t flows;

  explicit Harness(std::uint32_t flow_count,
                   std::int64_t first_segment = kSegment)
      : flows(flow_count) {
    vs.set_down(&down);
    vs.set_up(&up);
    for (std::uint32_t f = 0; f < flows; ++f) {
      auto p = make_data_packet(f, 1);
      p->payload_bytes = first_segment;
      vs.egress_in().receive(std::move(p));
    }
  }
};

struct Sample {
  double per_sec = 0;
  double ns_each = 0;
  double allocs_each = 0;
};

// The timed loop every microbench shares: iters/16 warm-up steps, then
// `iters` timed steps of `items_per_step` packets or events each.
template <typename Step>
Sample timed_loop(std::uint64_t iters, double items_per_step, Step step) {
  for (std::uint64_t i = 0; i < iters / 16; ++i) step();
  AllocWindow aw;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) step();
  const double secs = seconds_since(t0);
  const double items = items_per_step * static_cast<double>(iters);
  Sample s;
  s.per_sec = items / secs;
  s.ns_each = secs * 1e9 / items;
  s.allocs_each = static_cast<double>(aw.allocs()) / items;
  return s;
}

// One flow, forward data + reverse ACK (with PACK feedback) per iteration:
// the per-flow fast path (flow cache, packet pool).
Sample run_pingpong(std::uint64_t iters) {
  Harness h(1);
  std::uint32_t seq = 1 + kSegment;
  std::uint32_t ack = 1;
  return timed_loop(iters, 2, [&] {
    h.vs.egress_in().receive(make_data_packet(0, seq));
    seq += kSegment;
    ack += kSegment;
    h.vs.ingress_in().receive(make_ack_packet(0, ack));
  });
}

// Round-robin egress data across many flows: lookup + sequence tracking +
// ECT marking under flow-table pressure (also Fig. 11's sender path). The
// rotation defeats the single-entry flow cache on purpose.
Sample run_egress_data(std::uint64_t iters, std::uint32_t flows) {
  Harness h(flows);
  std::uint32_t seq = 1 + kSegment;
  std::uint32_t f = 0;
  return timed_loop(iters, 1, [&] {
    h.vs.egress_in().receive(make_data_packet(f, seq));
    if (++f == h.flows) {
      f = 0;
      seq += kSegment;
    }
  });
}

// RTO-style churn: every iteration re-arms a far timer (cancel + schedule)
// and schedules + fires a near event. Events = scheduled callbacks.
Sample run_events(std::uint64_t iters) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  sim::EventId pending = sim::kInvalidEventId;
  const Sample s = timed_loop(iters, 2, [&] {
    if (pending != sim::kInvalidEventId) sim.cancel(pending);
    pending = sim.schedule(sim::milliseconds(10), [&fired] { ++fired; });
    sim.schedule(sim::microseconds(1), [&fired] { ++fired; });
    sim.step();
  });
  if (fired == 0) error("events never fired");
  return s;
}

// ---- Tracing A/B ----------------------------------------------------------

// End-to-end dumbbell (4 bulk flows) measured as NIC-delivered packets per
// wall second. The traced run carries the full tap set (packet origin /
// tx-start / deliver events into the ring), exactly what a user debugging
// latency would enable, and the post-run merge + forensics analysis is
// timed separately into *analysis_ms.
double run_dumbbell_e2e(bool traced, sim::Time horizon,
                        double* analysis_ms = nullptr) {
  exp::DumbbellConfig dc;
  dc.scenario.seed = 11;
  dc.pairs = 4;
  exp::Dumbbell bell(dc);
  exp::Scenario& sc = bell.scenario();
  // Ring sized for always-on deployment (1 MB ~ the last few ms of fabric
  // history at ~5 tap events per delivered packet): the measured tracing
  // tax is dominated by the ring's cache footprint, not the tap
  // instructions. At this size the full tap set costs ~6-8% of e2e pps,
  // while a deep-retention 16 MB ring (what the soak and fuzz failure
  // paths use, where wall time is irrelevant) measures ~15% on a 4 MB-LLC
  // box purely from evicting the simulation's working set.
  if (traced) {
    sc.enable_tracing(std::size_t{1} << 14, /*metrics_interval=*/0);
  }
  const tcp::TcpConfig tcp_cfg = sc.tcp_config(tcp::CcId::kCubic);
  for (int i = 0; i < dc.pairs; ++i) {
    sc.add_bulk_flow(bell.sender(i), bell.receiver(i), tcp_cfg,
                     sim::microseconds(10 + i));
  }

  const auto t0 = Clock::now();
  sc.run_until(horizon);
  const double secs = seconds_since(t0);
  // Post-run merge + analysis is a debugging cost paid once per run, not a
  // per-packet tax; report its wall time separately instead of folding it
  // into the pps figure the overhead gate compares.
  if (traced) {
    const auto a0 = Clock::now();
    const obs::MergedTrace merged = obs::merge_recorders(sc.recorders());
    const forensics::Report report =
        forensics::DelayAnalyzer::analyze(merged);
    *analysis_ms = seconds_since(a0) * 1e3;
    if (report.packets_delivered == 0) error("forensics analyzed no packets");
  }

  std::int64_t packets = 0;
  for (int i = 0; i < dc.pairs; ++i) {
    packets += bell.sender(i)->nic().received_packets();
    packets += bell.receiver(i)->nic().received_packets();
  }
  return static_cast<double>(packets) / secs;
}

void run_tracing_overhead(const Profile& p, Section& cur) {
  // The simulated work is deterministic, so run-to-run pps spread is pure
  // scheduler/cache/frequency interference, and interference only ever
  // slows a trial down. Run seven back-to-back untraced/traced pairs (the
  // interleave keeps both arms in the same frequency regime) and take each
  // arm's best trial as its least-perturbed speed; the gate compares those
  // two bests. Per-pair medians were tried first and still swung several
  // points run-to-run, because a single stolen timeslice skews whichever
  // half of a short pair it lands on.
  const sim::Time horizon = sim::milliseconds(p.overhead_ms);
  double untraced_pps = 0;
  double traced_pps = 0;
  double best_analysis_ms = 0;
  for (int trial = 0; trial < 7; ++trial) {
    untraced_pps = std::max(untraced_pps, run_dumbbell_e2e(false, horizon));
    double analysis_ms = 0;
    const double traced = run_dumbbell_e2e(true, horizon, &analysis_ms);
    if (traced > traced_pps) {
      traced_pps = traced;
      best_analysis_ms = analysis_ms;
    }
  }
  const double overhead_pct = (1.0 - traced_pps / untraced_pps) * 100.0;
  cur.put("e2e_pps_untraced", untraced_pps, 0);
  cur.put("e2e_pps_traced", traced_pps, 0);
  cur.put("tracing_overhead_pct", overhead_pct, 2);
  cur.put("forensics_analysis_ms", best_analysis_ms, 2);
  std::fprintf(stderr,
               "tracing overhead: %.2f Mpps untraced, %.2f Mpps traced "
               "(%.1f%%), analysis %.1f ms\n",
               untraced_pps / 1e6, traced_pps / 1e6, overhead_pct,
               best_analysis_ms);
}

// ---- Parallel sweep -------------------------------------------------------

struct ParallelSample {
  int threads = 0;  // 0 = serial engine (no partition), the speedup anchor
  double events_per_sec = 0;
  double wall_secs = 0;
  bool parallel = false;  // false when the partition fell back to serial
  sim::par::ParallelExecutor::Stats stats;  // zero on the serial arm
};

// An 8-leaf/4-spine fabric partitioned into 8 shards (one leaf + its hosts
// per shard), with every host running a bulk flow to its peer under the
// next leaf, so all traffic crosses a shard cut. The shard count is fixed
// so the event stream is identical at every thread count; only wall time
// should change. threads == 0 runs the identical workload on the serial
// engine, the anchor for the t1 sync-overhead gate.
ParallelSample run_parallel_leaf_spine(int threads, sim::Time horizon) {
  exp::LeafSpineConfig cfg;
  cfg.leaves = 8;
  cfg.spines = 4;
  cfg.hosts_per_leaf = 6;
  cfg.scenario.seed = 7;
  exp::LeafSpine fabric(cfg);
  exp::Scenario& sc = fabric.scenario();
  exp::PartitionReport report;
  if (threads > 0) report = sc.enable_parallel(8, threads);

  const tcp::TcpConfig tcp_cfg = sc.tcp_config(tcp::CcId::kCubic);
  int pair = 0;
  for (int l = 0; l < cfg.leaves; ++l) {
    for (int i = 0; i < cfg.hosts_per_leaf; ++i) {
      sc.add_bulk_flow(fabric.host(l, i),
                       fabric.host((l + 1) % cfg.leaves, i), tcp_cfg,
                       sim::microseconds(10 + pair));
      ++pair;
    }
  }

  const auto t0 = Clock::now();
  sc.run_until(horizon);
  ParallelSample s;
  s.threads = threads;
  s.wall_secs = seconds_since(t0);
  s.events_per_sec = static_cast<double>(sc.executed_events()) / s.wall_secs;
  s.parallel = report.parallel;
  if (sc.executor() != nullptr) s.stats = sc.executor()->stats();
  return s;
}

void run_parallel_sweep(const Profile& p, Section& cur) {
  const sim::Time horizon = sim::milliseconds(p.parallel_ms);
  const ParallelSample serial = run_parallel_leaf_spine(0, horizon);
  std::fprintf(stderr, "parallel serial-arm: %.2f Mev/s (%.0f ms wall)\n",
               serial.events_per_sec / 1e6, serial.wall_secs * 1e3);
  std::vector<ParallelSample> sweep;
  for (int t : {1, 2, 4, 8}) {
    sweep.push_back(run_parallel_leaf_spine(t, horizon));
    const ParallelSample& s = sweep.back();
    std::fprintf(stderr,
                 "parallel t%d: %.2f Mev/s (%.0f ms wall, %s; "
                 "%llu windows, %llu msgs, %llu null, "
                 "barrier %.1f ms, idle %.1f ms)\n",
                 s.threads, s.events_per_sec / 1e6, s.wall_secs * 1e3,
                 s.parallel ? "sharded" : "serial fallback",
                 static_cast<unsigned long long>(s.stats.epochs),
                 static_cast<unsigned long long>(s.stats.messages),
                 static_cast<unsigned long long>(s.stats.null_msgs),
                 static_cast<double>(s.stats.barrier_wait_ns) / 1e6,
                 static_cast<double>(s.stats.idle_wait_ns) / 1e6);
  }

  cur.put("hw_threads", std::thread::hardware_concurrency(), 0);
  cur.put("parallel_sim_ms", static_cast<double>(p.parallel_ms), 0);
  cur.put_bool("parallel_sharded", sweep[0].parallel);
  cur.put("parallel_events_per_sec_serial", serial.events_per_sec, 0);
  for (const ParallelSample& s : sweep) {
    const std::string t = "_t" + std::to_string(s.threads);
    const double windows = static_cast<double>(s.stats.epochs);
    cur.put("parallel_events_per_sec" + t, s.events_per_sec, 0);
    cur.put("parallel_windows" + t, windows, 0);
    cur.put("parallel_msgs_per_window" + t,
            windows > 0 ? static_cast<double>(s.stats.messages) / windows : 0,
            3);
    cur.put("parallel_null_msgs" + t,
            static_cast<double>(s.stats.null_msgs), 0);
    cur.put("parallel_barrier_wait_ms" + t,
            static_cast<double>(s.stats.barrier_wait_ns) / 1e6, 2);
    cur.put("parallel_idle_wait_ms" + t,
            static_cast<double>(s.stats.idle_wait_ns) / 1e6, 2);
  }
  cur.put("parallel_speedup_t8",
          sweep.back().events_per_sec / sweep.front().events_per_sec, 3);
  cur.put("parallel_t1_vs_serial",
          sweep.front().events_per_sec / serial.events_per_sec, 3);
}

// ---- Churn ----------------------------------------------------------------

// Wall-clock flows/sec through complete lifecycles on a star fabric with
// real TCP endpoints and per-host vSwitches. Steady-state table occupancy
// and the removal counters come along, so a regression in lifecycle
// cleanup (leaking entries, dead GC) shows even when throughput looks fine.
Section run_churn(const Profile& p) {
  constexpr int kPairs = 4;
  constexpr std::int64_t kTableCap = 2048;  // per vSwitch
  exp::ScenarioConfig sc;
  sc.seed = 11;
  exp::Scenario scn(sc);

  net::Switch* hub = scn.add_switch("hub");
  std::vector<host::Host*> senders;
  std::vector<host::Host*> receivers;
  std::vector<vswitch::AcdcVswitch*> vswitches;

  vswitch::AcdcConfig acfg;
  acfg.flow_table_max_entries = kTableCap;
  acfg.infer_timeouts = false;  // measure churn, not the inactivity scanner
  acfg.gc_interval = sim::milliseconds(250);
  acfg.fin_linger = sim::milliseconds(100);

  for (int i = 0; i < kPairs; ++i) {
    host::Host* s = scn.add_host("cs" + std::to_string(i));
    host::Host* r = scn.add_host("cr" + std::to_string(i));
    scn.attach(s, hub);
    scn.attach(r, hub);
    vswitches.push_back(scn.attach_acdc(s, acfg));
    vswitches.push_back(scn.attach_acdc(r, acfg));
    senders.push_back(s);
    receivers.push_back(r);
  }

  workload::ChurnConfig ccfg;
  ccfg.arrival = workload::ArrivalKind::kPoisson;
  ccfg.flows_per_sec = 5000.0;  // per source
  ccfg.message_bytes = 2000;
  ccfg.linger = sim::milliseconds(200);  // keeps the table under pressure
  ccfg.stop_after = sim::milliseconds(p.churn_ms);
  for (int i = 0; i < kPairs; ++i) {
    scn.add_churn_workload(senders[static_cast<std::size_t>(i)],
                           receivers[static_cast<std::size_t>(i)],
                           scn.tcp_config(tcp::CcId::kCubic), ccfg);
  }

  std::int64_t peak_concurrent = 0;
  std::size_t table_peak = 0;
  const sim::Time horizon = sim::milliseconds(p.churn_ms) + sim::seconds(1);
  const sim::Time step = sim::milliseconds(100);
  const auto t0 = Clock::now();
  for (sim::Time t = step; t <= horizon; t += step) {
    scn.run_until(t);
    peak_concurrent = std::max(peak_concurrent, scn.churn_stats().concurrent);
    for (vswitch::AcdcVswitch* vs : vswitches) {
      table_peak = std::max(table_peak, vs->flows().size());
    }
  }
  const double secs = seconds_since(t0);

  const workload::ChurnStats churn = scn.churn_stats();
  std::int64_t gc_removed = 0;
  std::int64_t evictions = 0;
  for (vswitch::AcdcVswitch* vs : vswitches) {
    gc_removed += vs->flows().stats().gc_removed;
    evictions += vs->flows().stats().evictions;
  }
  const double flows_per_sec = static_cast<double>(churn.started) / secs;
  const double events_per_sec =
      static_cast<double>(scn.executed_events()) / secs;
  Section out;
  out.put("bench", "churn_pps");
  out.put("churn_flows_per_sec_wall", flows_per_sec, 0);
  out.put("churn_events_per_sec", events_per_sec, 0);
  out.put("churn_flows_started", static_cast<double>(churn.started), 0);
  out.put("churn_flows_completed", static_cast<double>(churn.completed), 0);
  out.put("churn_flows_aborted", static_cast<double>(churn.aborted), 0);
  out.put("churn_peak_concurrent", static_cast<double>(peak_concurrent), 0);
  out.put("churn_table_peak", static_cast<double>(table_peak), 0);
  out.put("churn_table_cap", kTableCap, 0);
  out.put("churn_gc_removed", static_cast<double>(gc_removed), 0);
  out.put("churn_evictions", static_cast<double>(evictions), 0);
  out.put("churn_pairs", kPairs, 0);
  out.put("churn_sim_ms", static_cast<double>(p.churn_ms), 0);
  std::fprintf(stderr,
               "churn: %.0f flows/s wall (%lld flows, %.2f Mev/s, "
               "peak conc %lld, table peak %zu/%lld, gc %lld, evict %lld)\n",
               flows_per_sec, static_cast<long long>(churn.started),
               events_per_sec / 1e6, static_cast<long long>(peak_concurrent),
               table_peak, static_cast<long long>(kTableCap),
               static_cast<long long>(gc_removed),
               static_cast<long long>(evictions));
  if (table_peak > static_cast<std::size_t>(kTableCap)) {
    error("churn flow table exceeded its cap");
  }
  return out;
}

// ---- Occupancy sweep ------------------------------------------------------

// Each measured iteration drives one rx-sized burst through both directions
// of the vSwitch: an egress data burst for a batch of LCG-randomized flows,
// then the matching ingress ACK burst (with PACK feedback), each through
// the vSwitch's burst prefetch pipeline. At the large occupancies the
// working set is far beyond any cache level, so the number is dominated by
// exactly what the hot/cold split and the burst prefetch exist to hide: the
// DRAM touch per lookup.
//
// Every flow keeps kOutstanding segments in flight and each ACK covers only
// the oldest one, so ACKs land mid-window the way they do on a real
// many-flow host: the observation-window boundary, where the virtual CC
// reads alpha and beta and may cut, rolls once per kOutstanding visits,
// not on every packet. An every-ACK-is-a-boundary workload puts per-window
// state on the per-packet path and measures a regime no real flow sits in.
constexpr std::size_t kBurst = 32;
constexpr std::uint32_t kOutstanding = 8;
constexpr std::uint32_t kWindow = (kOutstanding + 1) * kSegment;
constexpr int kOccupancyRounds = 25;

// One occupancy point: a populated vSwitch plus the driver state needed to
// run timed trials against it. All arms stay live for the whole sweep so
// rounds can interleave them.
class OccupancyArm {
 public:
  // Resident set: one established flow per index, created through the real
  // egress path so every entry carries initialized CC + sequence state. The
  // opening segment is a jumbo covering kOutstanding+1 MSS of sequence
  // space, so the in-flight window every later visit maintains exists from
  // the first measured packet.
  OccupancyArm(std::uint32_t flows, std::uint64_t packets)
      : h_(flows, kWindow),
        iters_(packets / (2 * kBurst)),
        snd_nxt_(flows, 1 + kWindow) {
    if (h_.vs.flows().size() != flows) {
      error("occupancy table holds %zu flows, expected %u",
            h_.vs.flows().size(), flows);
    }
    draw_batch(batch_);
    for (std::uint64_t i = 0; i < iters_ / 16 + 1; ++i) step();  // warm up
  }

  // Runs one timed trial and folds it into the arm's best-of.
  void run_trial() {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters_; ++i) step();
    const double secs = seconds_since(t0);
    if (best_secs_ == 0 || secs < best_secs_) best_secs_ = secs;
  }

  std::uint32_t flows() const { return h_.flows; }
  double packets_per_sec() const { return measured() / best_secs_; }
  double ns_per_packet() const { return best_secs_ * 1e9 / measured(); }
  std::size_t table_capacity() { return h_.vs.flows().capacity(); }
  std::int64_t rehashes() { return h_.vs.flows().stats().rehashes; }

 private:
  double measured() const { return static_cast<double>(iters_ * 2 * kBurst); }

  void draw_batch(std::uint32_t* out) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
      out[i] = static_cast<std::uint32_t>((lcg_ >> 33) % h_.flows);
      // Warm the driver's own per-flow sequence slot a whole iteration
      // ahead, so harness misses don't pollute the table-scaling signal.
      __builtin_prefetch(&snd_nxt_[out[i]], 1);
    }
  }

  void step() {
    draw_batch(next_batch_);  // prefetches for the NEXT iteration
    for (std::size_t i = 0; i < kBurst; ++i) {
      pkts_[i] = make_data_packet(batch_[i], snd_nxt_[batch_[i]]);
      snd_nxt_[batch_[i]] += kSegment;
    }
    h_.vs.egress_in().receive_burst(pkts_, kBurst);
    // Each ACK covers the oldest in-flight segment: it advances by one MSS
    // per visit (never a dupack) while staying kOutstanding segments behind
    // the send edge, so the flow is mid-window on almost every visit.
    for (std::size_t i = 0; i < kBurst; ++i) {
      pkts_[i] = make_ack_packet(
          batch_[i], snd_nxt_[batch_[i]] - kOutstanding * kSegment);
    }
    h_.vs.ingress_in().receive_burst(pkts_, kBurst);
    std::memcpy(batch_, next_batch_, sizeof(batch_));
  }

  Harness h_;
  std::uint64_t iters_;
  std::vector<std::uint32_t> snd_nxt_;
  std::uint64_t lcg_ = 0x9e3779b97f4a7c15ull;
  std::uint32_t batch_[kBurst];
  std::uint32_t next_batch_[kBurst];
  net::PacketPtr pkts_[kBurst];
  double best_secs_ = 0;
};

// MemAvailable in bytes, or -1 when /proc/meminfo is unreadable.
std::int64_t mem_available_bytes() {
  std::FILE* f = std::fopen("/proc/meminfo", "r");
  if (f == nullptr) return -1;
  char line[256];
  long long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "MemAvailable: %lld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb < 0 ? -1 : kb * 1024;
}

// Measurement is interleaved: every occupancy arm is populated up front and
// each round times one trial of every arm back to back, keeping the best
// round per arm. On shared machines interference arrives in multi-second
// phases; sequential arms would each marinate in a different phase and the
// ratio_1m_10k the gate reads would absorb the difference. Interleaving
// makes a phase hit all arms alike, and best-of finds each arm's
// least-perturbed round.
Section run_occupancy_sweep(const Profile& p) {
  std::vector<std::uint32_t> occupancies = {10'000, 100'000, 1'000'000};
  // The 10M point needs ~5 GB of flow state plus table slack; skip it
  // (loudly) rather than swap. The gate only needs the 10k and 1M points,
  // so skipping never hides a regression.
  if (!p.occupancy_10m) {
    std::fprintf(stderr, "quick mode: capping occupancy sweep at 1M flows\n");
  } else if (const std::int64_t avail = mem_available_bytes();
             avail >= std::int64_t{8} * 1024 * 1024 * 1024) {
    occupancies.push_back(10'000'000);
  } else {
    std::fprintf(stderr, "skipping 10M point: MemAvailable %.1f GB < 8 GB\n",
                 static_cast<double>(avail) / (1 << 30));
  }

  std::vector<std::unique_ptr<OccupancyArm>> arms;
  for (std::uint32_t flows : occupancies) {
    arms.push_back(std::make_unique<OccupancyArm>(flows, p.occupancy_packets));
  }
  for (int round = 0; round < kOccupancyRounds; ++round) {
    for (auto& arm : arms) arm->run_trial();
  }

  Section out;
  out.put("bench", "multiflow_pps");
  out.put("burst", kBurst, 0);
  out.put("packets_per_point", static_cast<double>(p.occupancy_packets), 0);
  const char* labels[] = {"10k", "100k", "1m", "10m"};
  for (std::size_t i = 0; i < arms.size(); ++i) {
    OccupancyArm& arm = *arms[i];
    std::fprintf(stderr,
                 "occupancy %8u: %.2f Mpps (%.1f ns/pkt, cap %zu, "
                 "%lld rehashes)\n",
                 arm.flows(), arm.packets_per_sec() / 1e6,
                 arm.ns_per_packet(), arm.table_capacity(),
                 static_cast<long long>(arm.rehashes()));
    out.put(std::string("pps_") + labels[i], arm.packets_per_sec(), 0);
    out.put(std::string("ns_") + labels[i], arm.ns_per_packet(), 2);
    if (i == 3) {
      out.put("rehashes_10m", static_cast<double>(arm.rehashes()), 0);
    }
  }
  const double ratio = arms[2]->packets_per_sec() / arms[0]->packets_per_sec();
  out.put("ratio_1m_10k", ratio, 3);
  std::fprintf(stderr, "ratio 1M/10k: %.3f\n", ratio);
  return out;
}

// ---- Closed-loop service --------------------------------------------------

// Exact percentile when the sample vector was kept (small arms), histogram
// bucket upper bound otherwise (scale arms keep memory fixed).
double latency_ms(const app::UserGroupStats& u, double q) {
  if (!u.samples.empty()) {
    std::vector<std::int64_t> s = u.samples;
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(s.size() - 1));
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(rank),
                     s.end());
    return static_cast<double>(s[rank]) / 1e6;
  }
  return static_cast<double>(u.latency.quantile(q)) / 1e6;
}

// One closed-loop arm: user sessions -> frontends -> partition-aggregate
// across workers -> storage, with AC/DC vSwitches on every host. Every
// simulated user waits for its response (or a deadline miss) before
// thinking and issuing again, so wall-clock requests/sec measures the whole
// stack; p99 and the miss/violation counters show a latency regression
// even when throughput looks fine. Returns the arm's keys, unsuffixed.
Section run_service_arm(const Profile& p, const ServiceArm& arm) {
  constexpr std::int64_t kDeadlineMs = 40;
  constexpr std::int64_t kTableCap = 8192;  // per vSwitch
  // Same 4-leaf/2-spine shape as the service soak: every tier hop crosses
  // leaves.
  exp::LeafSpineConfig lcfg;
  lcfg.scenario.seed = 17;
  lcfg.scenario.mtu_bytes = 1500;
  lcfg.leaves = 4;
  lcfg.spines = 2;
  lcfg.hosts_per_leaf = 4;
  exp::LeafSpine fabric(lcfg);
  exp::Scenario& scn = fabric.scenario();

  app::ServiceRoles roles;
  for (int h = 0; h < 4; ++h) roles.clients.push_back(fabric.host(0, h));
  roles.frontends = {fabric.host(1, 0), fabric.host(2, 0)};
  for (int l = 1; l <= 2; ++l) {
    for (int h = 1; h < 4; ++h) roles.workers.push_back(fabric.host(l, h));
  }
  roles.storage = {fabric.host(3, 0), fabric.host(3, 1)};

  vswitch::AcdcConfig acfg;
  acfg.flow_table_max_entries = kTableCap;
  acfg.infer_timeouts = false;  // measure the service, not the scanner
  acfg.gc_interval = sim::milliseconds(250);
  acfg.fin_linger = sim::milliseconds(100);

  std::vector<vswitch::AcdcVswitch*> vswitches;
  for (const auto* hosts :
       {&roles.clients, &roles.frontends, &roles.workers, &roles.storage}) {
    for (host::Host* h : *hosts) vswitches.push_back(scn.attach_acdc(h, acfg));
  }

  app::ServiceConfig svc;
  svc.users.users = arm.users;
  svc.users.users_per_connection = 50;
  svc.users.think_time_mean = sim::milliseconds(arm.think_ms);
  svc.users.deadline = sim::milliseconds(kDeadlineMs);
  svc.users.slo = sim::milliseconds(10);
  svc.users.curve = app::LoadCurve::kSteady;
  svc.users.stop_after = sim::milliseconds(p.service_ms);
  // Exact percentiles on the small arms; fixed-memory histogram at scale.
  svc.users.keep_latency_samples = arm.users <= 10'000;
  svc.fanout.fanout = 3;
  app::ServiceTier* tier = scn.add_service_workload(
      roles, svc, scn.tcp_config(tcp::CcId::kCubic));

  std::size_t table_peak = 0;
  const sim::Time horizon = sim::milliseconds(p.service_ms) +
                            sim::milliseconds(kDeadlineMs) +
                            sim::milliseconds(500);  // drain tail
  const sim::Time step = sim::milliseconds(100);
  const auto t0 = Clock::now();
  for (sim::Time t = step; t <= horizon; t += step) {
    scn.run_until(t);
    for (vswitch::AcdcVswitch* vs : vswitches) {
      table_peak = std::max(table_peak, vs->flows().size());
    }
  }
  const double secs = seconds_since(t0);

  const app::ServiceStats stats = tier->stats();
  const app::UserGroupStats& u = stats.user;
  const bool drained = tier->drained();
  const double rps_wall = static_cast<double>(u.completed) / secs;
  const double events_per_sec =
      static_cast<double>(scn.executed_events()) / secs;
  const double p99_ms = latency_ms(u, 0.99);
  Section out;
  out.put("service_rps_wall", rps_wall, 0);
  out.put("service_rps_sim",
          stats.requests_per_sec(sim::milliseconds(p.service_ms)), 0);
  out.put("service_events_per_sec", events_per_sec, 0);
  out.put("service_users", static_cast<double>(arm.users), 0);
  out.put("service_requests_issued", static_cast<double>(u.issued), 0);
  out.put("service_requests_completed", static_cast<double>(u.completed), 0);
  out.put("service_deadline_misses", static_cast<double>(u.deadline_misses),
          0);
  out.put("service_slo_violations", static_cast<double>(u.slo_violations), 0);
  out.put("service_p50_ms", latency_ms(u, 0.5), 3);
  out.put("service_p99_ms", p99_ms, 3);
  out.put("service_table_peak", static_cast<double>(table_peak), 0);
  out.put("service_drained", drained ? 1 : 0, 0);
  out.put("service_sim_ms", static_cast<double>(p.service_ms), 0);
  out.put("service_shards", 0, 0);
  std::fprintf(stderr,
               "service%s: %.0f req/s wall (%lld users, %lld/%lld completed, "
               "%.2f Mev/s, p99 %.2f ms, miss %lld, slo %lld, drained %d)\n",
               arm.suffix, rps_wall, static_cast<long long>(arm.users),
               static_cast<long long>(u.completed),
               static_cast<long long>(u.issued), events_per_sec / 1e6, p99_ms,
               static_cast<long long>(u.deadline_misses),
               static_cast<long long>(u.slo_violations), drained ? 1 : 0);
  // Hold on any arm: the tier must run dry and the request ledger close.
  if (!drained) {
    error("service%s tier failed to drain by the horizon", arm.suffix);
  }
  if (u.issued != u.completed + u.deadline_misses) {
    error("service%s request accounting does not close", arm.suffix);
  }
  return out;
}

Section run_service(const Profile& p) {
  const bool sweep = p.service_arms.size() > 1;
  Section out;
  out.put("bench", "service_rps");
  out.put("service_sweep", sweep ? 1 : 0, 0);
  for (const ServiceArm& arm : p.service_arms) {
    const Section keys = run_service_arm(p, arm);
    // The unsuffixed keys always exist (a ladder mirrors its first arm
    // there), so a reader finds one schema either way.
    if (sweep && &arm == &p.service_arms[0]) out.append(keys, "");
    out.append(keys, arm.suffix);
  }
  return out;
}

// ---- Figs. 11/12: per-packet CPU overhead ---------------------------------

// The paper measures whole-server CPU (sar) on a 10G testbed while sweeping
// 100..10K concurrent flows, and finds AC/DC adds < 1 percentage point.
// Here the measured quantity is exactly the work AC/DC adds: the
// per-packet datapath cost (flow-table lookup + connection tracking +
// virtual CC + RWND rewrite) against a pass-through baseline, swept over
// the same flow counts, plus the byte-level header operations (serialize /
// parse, incremental-checksum RWND / ECN rewrites) the OVS patch performs.
Section run_fig11_12(const Profile& p) {
  const std::uint64_t iters = p.packet_iters;
  Section out;
  out.put("iters", static_cast<double>(iters), 0);
  auto put = [&out](const std::string& name, const Sample& s) {
    out.put(name + "_ns", s.ns_each, 2);
  };

  // Baseline: a trivial filter, the unmodified-OVS analogue (the
  // forwarding work itself is common to both systems).
  {
    net::DuplexFilter passthrough;
    NullSink sink;
    passthrough.set_down(&sink);
    std::uint32_t seq = 1;
    put("passthrough", timed_loop(iters, 1, [&] {
          passthrough.egress_in().receive(make_data_packet(7, seq));
          seq += kSegment;
        }));
  }
  constexpr std::uint32_t kFlowCounts[] = {100, 500, 1'000, 5'000, 10'000};
  // Egress data: lookup + sequence tracking + ECT marking (Fig. 11 sender).
  for (std::uint32_t flows : kFlowCounts) {
    put("egress_data_" + std::to_string(flows),
        run_egress_data(iters, flows));
  }
  // Ingress ACK: lookup + feedback extraction + virtual DCTCP + RWND
  // enforcement, AC/DC's most expensive operation (Figs. 11/12).
  for (std::uint32_t flows : kFlowCounts) {
    Harness h(flows);
    std::vector<std::uint32_t> acks(flows, 1);
    std::uint32_t f = 0;
    put("ingress_ack_" + std::to_string(flows), timed_loop(iters, 1, [&] {
          acks[f] += kSegment;
          h.vs.ingress_in().receive(make_ack_packet(f, acks[f]));
          if (++f == flows) f = 0;
        }));
  }
  // Receiver-side ingress data: counting + ECN stripping (Fig. 12).
  for (std::uint32_t flows : {100u, 10'000u}) {
    Harness h(flows);
    std::uint32_t seq = 1;
    std::uint32_t f = 0;
    put("ingress_data_" + std::to_string(flows), timed_loop(iters, 1, [&] {
          auto pkt = make_data_packet(f, seq);
          std::swap(pkt->ip.src, pkt->ip.dst);
          std::swap(pkt->tcp.src_port, pkt->tcp.dst_port);
          pkt->ip.ecn = net::Ecn::kCe;
          h.vs.ingress_in().receive(std::move(pkt));
          if (++f == flows) {
            f = 0;
            seq += kSegment;
          }
        }));
  }
  // Byte-level header operations of the OVS patch (§4): full serialize and
  // parse, the §3.3 RWND rewrite and the §3.2 ECN mark, each with its
  // incremental checksum fix.
  const net::PacketPtr ack = make_ack_packet(1, 100'000);
  put("wire_serialize", timed_loop(iters, 1, [&] {
        const auto bytes = net::wire::serialize(*ack);
        keep(bytes.data());
      }));
  std::vector<std::uint8_t> bytes = net::wire::serialize(*ack);
  put("wire_parse", timed_loop(iters, 1, [&] {
        const auto parsed = net::wire::parse(bytes);
        keep(&parsed);
      }));
  std::uint16_t window = 1;
  put("wire_rewrite_rwnd", timed_loop(iters, 1, [&] {
        net::wire::rewrite_window_in_place(bytes, window++);
        keep(bytes.data());
      }));
  bytes = net::wire::serialize(*make_data_packet(1, 1));
  bool ce = false;
  put("wire_set_ecn", timed_loop(iters, 1, [&] {
        net::wire::set_ecn_in_place(bytes,
                                    ce ? net::Ecn::kCe : net::Ecn::kEct0);
        ce = !ce;
        keep(bytes.data());
      }));

  std::fprintf(stderr,
               "fig11_12: passthrough %.1f ns; egress data %.1f -> %.1f ns, "
               "ingress ACK %.1f -> %.1f ns, ingress data %.1f -> %.1f ns "
               "(100 -> 10k flows); serialize %.1f, parse %.1f, RWND "
               "rewrite %.1f, ECN set %.1f ns\n",
               out.num("passthrough_ns"), out.num("egress_data_100_ns"),
               out.num("egress_data_10000_ns"), out.num("ingress_ack_100_ns"),
               out.num("ingress_ack_10000_ns"),
               out.num("ingress_data_100_ns"),
               out.num("ingress_data_10000_ns"), out.num("wire_serialize_ns"),
               out.num("wire_parse_ns"), out.num("wire_rewrite_rwnd_ns"),
               out.num("wire_set_ecn_ns"));
  return out;
}

// ---- Run setup ------------------------------------------------------------

Section provenance(const Profile& p) {
  Section s;
  s.put("commit", ACDC_PERF_COMMIT);  // captured when CMake configured
  s.put("build_type", ACDC_PERF_BUILD_TYPE);
  s.put("compiler", __VERSION__);
  s.put("hw_threads", std::thread::hardware_concurrency(), 0);
  s.put("profile", p.name);
  return s;
}

// Benchmarks want a quiet machine: warn when any CPU is not on the
// `performance` governor (frequency ramps skew ns/packet numbers).
void warn_unless_performance_governor() {
  std::set<std::string> governors;
  for (int cpu = 0;; ++cpu) {
    const std::string path = "/sys/devices/system/cpu/cpu" +
                             std::to_string(cpu) + "/cpufreq/scaling_governor";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) break;
    char name[64] = {};
    if (std::fgets(name, sizeof name, f) != nullptr) {
      name[std::strcspn(name, "\n")] = '\0';
      governors.insert(name);
    }
    std::fclose(f);
  }
  if (governors.empty() || (governors.size() == 1 &&
                            *governors.begin() == "performance")) {
    return;
  }
  std::string list;
  for (const std::string& g : governors) list += (list.empty() ? "" : " ") + g;
  std::fprintf(stderr,
               "warning: CPU governor is '%s', not 'performance'; numbers "
               "will be noisy (sudo cpupower frequency-set -g performance)\n",
               list.c_str());
}

// Pins the process to its first min(8, nproc) CPUs, so the scheduler does
// not migrate it mid-measurement; the parallel sweep needs up to 8 workers,
// and the threads it starts inherit the mask.
void pin_to_first_cpus() {
#ifdef __linux__
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t pin;
  CPU_ZERO(&pin);
  for (int c = 0; c < std::min(8, CPU_COUNT(&allowed)); ++c) CPU_SET(c, &pin);
  if (sched_setaffinity(0, sizeof pin, &pin) != 0) {
    std::perror("warning: cannot pin to the first CPUs");
  }
#endif
}

PerfReport run_all(const Profile& p, bool check) {
  PerfReport r;
  r.provenance = provenance(p);
  Section& cur = r.current;
  constexpr std::uint32_t kMultiflowFlows = 1024;
  const Sample ping = run_pingpong(p.packet_iters);
  std::fprintf(stderr, "pingpong: %.2f Mpps (%.1f ns/pkt, %.3f allocs/pkt)\n",
               ping.per_sec / 1e6, ping.ns_each, ping.allocs_each);
  const Sample multi = run_egress_data(p.multiflow_iters, kMultiflowFlows);
  std::fprintf(stderr,
               "multiflow(%u): %.2f Mpps (%.1f ns/pkt, %.3f allocs/pkt)\n",
               kMultiflowFlows, multi.per_sec / 1e6, multi.ns_each,
               multi.allocs_each);
  const Sample events = run_events(p.event_iters);
  std::fprintf(stderr, "events: %.2f Mev/s (%.1f ns/ev, %.3f allocs/ev)\n",
               events.per_sec / 1e6, events.ns_each, events.allocs_each);
  cur.put("bench", "datapath_pps");
  cur.put("packets_per_sec", ping.per_sec, 0);
  cur.put("ns_per_packet", ping.ns_each, 2);
  cur.put("allocs_per_packet_steady", ping.allocs_each, 4);
  cur.put("multiflow_packets_per_sec", multi.per_sec, 0);
  cur.put("multiflow_ns_per_packet", multi.ns_each, 2);
  cur.put("multiflow_allocs_per_packet", multi.allocs_each, 4);
  cur.put("events_per_sec", events.per_sec, 0);
  cur.put("ns_per_event", events.ns_each, 2);
  cur.put("allocs_per_event_steady", events.allocs_each, 4);
  cur.put("flows_multiflow", kMultiflowFlows, 0);
  run_tracing_overhead(p, cur);
  run_parallel_sweep(p, cur);
  r.churn = run_churn(p);
  r.multiflow = run_occupancy_sweep(p);
  r.service = run_service(p);
  if (check) {
    r.multiflow = retry_occupancy_sweep(
        std::move(r.multiflow), [&p] { return run_occupancy_sweep(p); });
  }
  r.fig11_12 = run_fig11_12(p);
  return r;
}

}  // namespace
}  // namespace acdc::bench

int main(int argc, char** argv) {
  using namespace acdc::bench;
  bool quick = false;
  bool check = false;
  std::string out_path = "BENCH_datapath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--check] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  warn_unless_performance_governor();
  pin_to_first_cpus();

  const PerfReport report = run_all(quick ? kQuick : kFull, check);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  write_json(report, out);
  std::fclose(out);
  const Section& base = datapath_baseline();
  auto vs_base = [](const Section& now, const Section& then, const char* k) {
    return now.num(k) / then.num(k);
  };
  std::fprintf(stderr,
               "wrote %s\n  vs frozen baselines: pingpong %.3fx, multiflow "
               "%.3fx, events %.3fx, churn %.3fx\n",
               out_path.c_str(),
               vs_base(report.current, base, "packets_per_sec"),
               vs_base(report.current, base, "multiflow_packets_per_sec"),
               vs_base(report.current, base, "events_per_sec"),
               vs_base(report.churn, churn_baseline(),
                       "churn_flows_per_sec_wall"));

  if (check) {
    const std::vector<std::string> failed = failed_gates(report);
    if (!failed.empty()) {
      std::fputs("PERF REGRESSION:", stderr);
      for (const std::string& f : failed) {
        std::fprintf(stderr, "\n  %s", f.c_str());
      }
      std::fputs("\n", stderr);
      return 1;
    }
    std::fputs("perf check passed\n", stderr);
  }
  if (g_errors > 0) {
    std::fprintf(stderr, "%d sanity check(s) failed\n", g_errors);
    return 1;
  }
  return 0;
}
