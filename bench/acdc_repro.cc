// acdc_repro: regenerates the paper's evaluation exhibits (§2 and §5:
// Figs. 1-23, Table 1, the design ablations and the §2.3 granularity
// study) on the deterministic simulator.
//
//   acdc_repro [exhibit...]
//
// Runs the named exhibits in order, or every exhibit when none is named,
// printing each one's tables to stdout; an unknown name prints the list
// and exits 1. Output is a pure function of the source: the behaviour
// ledger (tests/golden/repro.sha256, checked by check_repro.cmake) pins
// every exhibit's stdout. ACDC_TRACE=<prefix> traces the runs built on the
// shared harness (common.h) and dumps the last one's trace and metrics.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include "common.h"
#include "exp/leaf_spine.h"
#include "exp/parking_lot.h"
#include "workload/distributions.h"

using namespace acdc;
using namespace acdc::bench;

namespace {

// 100 * (1 - x / base) at percentile p: the FCT cut against CUBIC.
double cut_pct(const stats::Sampler& base, const stats::Sampler& x, double p) {
  return 100 * (1 - x.percentile(p) / base.percentile(p));
}

// Figure 1: "Different congestion controls lead to unfairness."
//  (a) five flows with five different host stacks (CUBIC, Illinois,
//      HighSpeed, New Reno, Vegas) share the Fig. 7a dumbbell;
//  (b) baseline with all five flows running CUBIC.
// Ten repeats; per-flow throughput and the max/min/mean/median of (b).
//
// Paper shape: in (a) the aggressive stacks (Illinois, HighSpeed) take most
// of the bandwidth; in (b) the spread is much narrower.

// The five host stacks of Figs. 1a and 17b.
const std::vector<tcp::CcId> kFiveStacks = {
    tcp::CcId::kCubic, tcp::CcId::kIllinois, tcp::CcId::kHighspeed,
    tcp::CcId::kReno, tcp::CcId::kVegas};

void fig01() {
  std::printf("Fig. 1 — heterogeneous host stacks are unfair "
              "(no AC/DC, no switch ECN)\n");
  std::printf("Paper (Fig. 1a): Illinois/HighSpeed ~2.5-3.5 Gbps, "
              "Vegas/Reno ~0.5-1.5 Gbps.\n");

  stats::Table fig1a({"test", "cubic", "illinois", "highspeed", "reno",
                      "vegas", "jain"});
  std::vector<stats::Sampler> per_flow_a(kFiveStacks.size());
  for (int test = 1; test <= 10; ++test) {
    // Plain vSwitch, no ECN.
    const RunResult r = run_dumbbell(repeated_test(exp::Mode::kCubic, test),
                                     flows_of(kFiveStacks));
    std::vector<std::string> row{std::to_string(test)};
    for (std::size_t i = 0; i < kFiveStacks.size(); ++i) {
      row.push_back(gbps(r.goodputs_gbps[i]));
      per_flow_a[i].add(r.goodputs_gbps[i]);
    }
    row.push_back(stats::Table::num(r.jain));
    fig1a.add_row(row);
  }
  fig1a.print("Fig. 1a — five different CCs, per-flow goodput (Gbps)");

  const double jain_b =
      fairness_panel("Fig. 1b — all CUBIC, throughput spread (Gbps)",
                     exp::Mode::kCubic, std::vector<FlowSpec>(5));

  std::printf("\nSummary: mean goodput by stack across 10 tests (Gbps):\n");
  for (std::size_t i = 0; i < kFiveStacks.size(); ++i) {
    std::printf("  %-10s %s\n",
                std::string(tcp::to_string(kFiveStacks[i])).c_str(),
                gbps(per_flow_a[i].mean()).c_str());
  }
  std::printf("Mean all-CUBIC Jain index: %.3f\n", jain_b);
}

// Figure 2: "CDF of RTTs showing CUBIC fills buffers."
// Five flows on the dumbbell. In the first configuration each CUBIC sender
// is rate-limited to exactly its 2 Gbps fair share (per-VM token bucket);
// CUBIC still keeps a window's worth of data queued, so RTTs sit in the
// milliseconds. DCTCP needs no rate limiting and keeps RTTs low.
//
// Paper shape: CUBIC (RL=2Gbps) RTT CDF spans ~1-10ms; DCTCP < ~0.3ms.
// (In our substrate the standing queue sits mostly in the edge shaper
// qdisc — the same place Linux HTB queues — not the switch; the conclusion
// that bandwidth allocation alone cannot bound latency is unchanged.)
stats::Sampler rate_limited_rtts(bool dctcp) {
  exp::DumbbellConfig dc;
  dc.scenario = exp::scenario_config_for(dctcp ? exp::Mode::kDctcp
                                               : exp::Mode::kCubic);
  exp::Dumbbell bell(dc);
  exp::Scenario& s = bell.scenario();
  const tcp::TcpConfig tcp = s.tcp_config(dctcp ? tcp::CcId::kDctcp : tcp::CcId::kCubic);
  for (int i = 0; i < bell.pairs(); ++i) {
    if (!dctcp) {
      // "Perfect" per-VM allocation: 2 Gbps each.
      s.attach_shaper(bell.sender(i), sim::gigabits_per_second(2),
                      64 * 1024);
    }
    s.add_bulk_flow(bell.sender(i), bell.receiver(i), tcp, 0);
  }
  auto* probe = s.add_rtt_probe(bell.sender(0), bell.receiver(0), tcp,
                                sim::milliseconds(50), sim::milliseconds(1));
  s.run_until(sim::seconds(2));
  return probe->rtt_ms();
}

void fig02() {
  std::printf("Fig. 2 — rate limiting alone cannot bound latency\n");
  const stats::Sampler cubic = rate_limited_rtts(false);
  const stats::Sampler dctcp = rate_limited_rtts(true);
  print_percentiles("Fig. 2 — RTT CDF (percentiles)",
                    {"percentile", "CUBIC (RL=2Gbps) RTT ms", "DCTCP RTT ms"},
                    {&cubic, &dctcp}, kRttPercentiles);
  std::printf("Paper: CUBIC(RL) ~1-10 ms across the CDF; DCTCP well under "
              "1 ms.\nMeasured medians: CUBIC(RL)=%.2f ms, DCTCP=%.3f ms\n",
              cubic.median(), dctcp.median());
}

// Figure 6: "Using RWND can effectively control throughput."
// On an uncongested 10G path, bound a single flow's window either by the
// host's CWND clamp (Linux snd_cwnd_clamp) or by AC/DC's RWND cap, and
// sweep the bound. The two curves should coincide: RWND is as effective a
// throughput-control knob as CWND (§3.4).
//  (a) MTU 1.5KB, bound in packets up to 250;
//  (b) MTU 9KB, bound in MSS up to 16.
double bounded_window_gbps(std::int64_t mtu, int window_packets,
                           bool use_rwnd) {
  exp::DumbbellConfig dc;
  dc.scenario = exp::scenario_config_for(exp::Mode::kDctcp, mtu);
  dc.pairs = 1;
  exp::Dumbbell bell(dc);
  exp::Scenario& s = bell.scenario();
  tcp::TcpConfig tcp = s.tcp_config(tcp::CcId::kCubic);
  if (use_rwnd) {
    vswitch::AcdcConfig acdc;
    auto* vs = s.attach_acdc(bell.sender(0), acdc);
    s.attach_acdc(bell.receiver(0), acdc);
    vswitch::FlowPolicy p;
    p.max_rwnd_bytes = static_cast<std::int64_t>(window_packets) *
                       static_cast<std::int64_t>(s.config().mss());
    vs->policy().set_default(p);
  } else {
    tcp.cwnd_clamp_packets = window_packets;
  }
  auto* app = s.add_bulk_flow(bell.sender(0), bell.receiver(0), tcp, 0);
  s.run_until(sim::milliseconds(600));
  return app->goodput_bps(sim::milliseconds(100), sim::milliseconds(600)) /
         1e9;
}

void window_sweep(const char* title, std::int64_t mtu,
                  const std::vector<int>& sweep) {
  stats::Table t({"max window (pkts/MSS)", "CWND clamp (Gbps)",
                  "RWND cap (Gbps)"});
  for (int w : sweep) {
    t.add_row({std::to_string(w),
               stats::Table::num(bounded_window_gbps(mtu, w, false)),
               stats::Table::num(bounded_window_gbps(mtu, w, true))});
  }
  t.print(title);
}

void fig06() {
  std::printf("Fig. 6 — bounding RWND controls throughput exactly like a "
              "CWND clamp\n");
  window_sweep("Fig. 6a — MTU 1.5KB", 1500,
               {1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 250});
  window_sweep("Fig. 6b — MTU 9KB", 9000, {1, 2, 3, 4, 6, 8, 10, 12, 14, 16});
  std::printf("Paper: both curves rise linearly with the window until they "
              "saturate 10G (~64 pkts at 1.5K, ~10 MSS at 9K), and "
              "coincide.\n");
}

// Figure 8 + §5.1 "Canonical topologies": RTT CDF of the three schemes on
// the Fig. 7a dumbbell (one long flow per pair), plus the Fig. 7b
// parking-lot numbers reported in the text (per-flow throughput, fairness,
// 50th/99.9th-percentile RTT).
//
// Paper: dumbbell per-flow goodput 1.98 Gbps for all three schemes; AC/DC's
// RTT tracks DCTCP closely and both are far below CUBIC (which fills the
// shared buffer). Parking lot: CUBIC 2.48 Gbps / fairness 0.94; DCTCP and
// AC/DC 2.45 Gbps / 0.99; p50 RTT 124us (AC/DC), 136us (DCTCP), 3.3ms
// (CUBIC).
RunResult run_parking_lot(exp::Mode mode) {
  // Fig. 7b: senders enter the switch chain at different hops, all flows
  // terminate at the single receiver behind the last switch, so each flow
  // traverses a different number of bottleneck trunks.
  exp::ParkingLotConfig cfg;
  cfg.scenario = exp::scenario_config_for(mode);
  cfg.segments = 3;
  exp::ParkingLot lot(cfg);
  exp::Scenario& s = lot.scenario();
  std::vector<host::Host*> hosts{lot.long_sender(), lot.long_receiver()};
  for (int i = 0; i < lot.segments(); ++i) {
    hosts.push_back(lot.cross_sender(i));
  }
  exp::apply_mode(s, hosts, mode);
  const tcp::TcpConfig tcp = exp::host_tcp_config(s, mode);
  std::vector<host::BulkApp*> apps;
  apps.push_back(s.add_bulk_flow(lot.long_sender(), lot.long_receiver(), tcp, 0));
  for (int i = 0; i < lot.segments(); ++i) {
    apps.push_back(
        s.add_bulk_flow(lot.cross_sender(i), lot.long_receiver(), tcp, 0));
  }
  auto* probe =
      s.add_rtt_probe(lot.long_sender(), lot.long_receiver(), tcp,
                      sim::milliseconds(50), sim::milliseconds(1));
  s.run_until(sim::seconds(2));
  return measure(RunConfig{}, s, apps, probe);  // goodput over [300 ms, 2 s]
}

void fig08() {
  std::printf("Fig. 8 — RTT on the dumbbell (Fig. 7a), three schemes\n");
  std::vector<RunResult> runs;
  for (exp::Mode mode : kSchemes) {
    runs.push_back(
        run_dumbbell({.mode = mode, .duration = sim::seconds(2)},
                     std::vector<FlowSpec>(5)));
  }
  print_percentiles("Fig. 8 — dumbbell RTT CDF (ms)",
                    scheme_headers("percentile", " ms"),
                    {&runs[0].rtt_ms, &runs[1].rtt_ms, &runs[2].rtt_ms},
                    kRttPercentiles);
  std::printf("Per-flow goodput (paper: 1.98 Gbps for all): CUBIC=%.2f "
              "DCTCP=%.2f AC/DC=%.2f Gbps\n",
              runs[0].total_gbps() / 5.0, runs[1].total_gbps() / 5.0,
              runs[2].total_gbps() / 5.0);

  std::printf("\n§5.1 parking lot (Fig. 7b)\n");
  stats::Table lot({"scheme", "mean Gbps", "jain", "p50 RTT ms",
                    "p99.9 RTT ms"});
  const char* paper[3] = {"2.48 / 0.94 / 3.3ms / 3.9ms",
                          "2.45 / 0.99 / 0.136ms / 0.301ms",
                          "2.45 / 0.99 / 0.124ms / 0.279ms"};
  for (int m = 0; m < 3; ++m) {
    const RunResult r = run_parking_lot(kSchemes[m]);
    const char* name = exp::to_string(kSchemes[m]);
    lot.add_row({name, gbps(r.total_gbps() / r.goodputs_gbps.size()),
                 stats::Table::num(r.jain),
                 stats::Table::num(r.rtt_ms.median()),
                 stats::Table::num(r.rtt_ms.percentile(99.9))});
    std::printf("  paper %s: %s\n", name, paper[m]);
  }
  lot.print("Parking lot — mean goodput / fairness / RTT");
}

// Figure 9: "AC/DC's RWND tracks DCTCP's CWND."
// Host stacks run DCTCP; AC/DC runs in observer mode (computes its window
// and logs it instead of overwriting the ACK, exactly the paper's
// methodology). We align the vSwitch's computed RWND with the host stack's
// CWND (the tcpprobe analogue) and print:
//  (a) both series over the first 100 ms of a flow;
//  (b) 100 ms moving averages over 5 s (scaled to 2 s here);
// plus tracking-error statistics. 1.5KB MTU as in the paper.
void fig09() {
  const std::vector<WindowSample> series = track_windows(
      exp::Mode::kDctcp, {.enforce = false}, sim::seconds(2));

  print_windows("Fig. 9a — first 100 ms of a flow (windows in MSS)",
                "DCTCP CWND (MSS)", series, 0.0, 0.1);

  // (b) 100 ms moving averages.
  stats::Table b({"t (s)", "avg RWND (MSS)", "avg CWND (MSS)"});
  std::map<int, std::pair<stats::Sampler, stats::Sampler>> buckets;
  for (const WindowSample& w : series) {
    auto& bucket = buckets[static_cast<int>(w.t_s * 10)];
    bucket.first.add(w.rwnd_mss);
    bucket.second.add(w.cwnd_mss);
  }
  for (auto& [idx, samplers] : buckets) {
    if (idx % 2 != 0) continue;  // print every 200 ms
    b.add_row({stats::Table::num(idx / 10.0),
               stats::Table::num(samplers.first.mean()),
               stats::Table::num(samplers.second.mean())});
  }
  b.print("Fig. 9b — 100 ms moving averages");

  // Tracking error.
  stats::Sampler ratio;
  for (const WindowSample& w : series) {
    if (w.t_s < 0.05 || w.cwnd_mss <= 0) continue;
    ratio.add(w.rwnd_mss / w.cwnd_mss);
  }
  std::printf("\nTracking ratio RWND/CWND after warm-up: median=%.2f "
              "p10=%.2f p90=%.2f over %zu samples\n",
              ratio.median(), ratio.percentile(10), ratio.percentile(90),
              ratio.count());
  std::printf("Paper: the two curves are visually indistinguishable "
              "(ratio ~1).\n");
}

// Figure 10: "Who limits TCP throughput when AC/DC is run with CUBIC?"
// Host stack CUBIC, AC/DC enforcing. The VM's CWND keeps growing (AC/DC
// hides ECN and prevents loss), so AC/DC's RWND becomes — and stays — the
// limiting window.
//  (a) windows over the first 100 ms;
//  (b) windows 2 seconds in (scaled: 1 second in);
// plus the fraction of ACKs where the enforced RWND < the VM's CWND.
// 1.5KB MTU as in the paper.
void fig10() {
  const std::vector<WindowSample> series =
      track_windows(exp::Mode::kAcdc, {}, sim::milliseconds(1500));
  std::int64_t limiting = 0;
  const auto total = static_cast<std::int64_t>(series.size());
  for (const WindowSample& w : series) {
    if (w.rwnd_mss < w.cwnd_mss) ++limiting;
  }

  print_windows("Fig. 10a — windows from flow start (first 100 ms)",
                "CUBIC CWND (MSS)", series, 0.0, 0.1);
  print_windows("Fig. 10b — windows 1 s in", "CUBIC CWND (MSS)", series, 1.0,
                1.1);

  std::printf("\nEnforced RWND < VM CWND on %.1f%% of ACKs (%lld/%lld)\n",
              100.0 * static_cast<double>(limiting) /
                  static_cast<double>(total ? total : 1),
              static_cast<long long>(limiting),
              static_cast<long long>(total));
  std::printf("Paper: after start-up, AC/DC's RWND is always the limiting "
              "window (CUBIC's CWND floats far above).\n");
}

// Figure 13: "AC/DC provides differentiated throughput via QoS-based CC."
// Five CUBIC flows on the dumbbell; AC/DC assigns each flow a priority
// beta (Eq. 1) from the paper's combinations, defined on a 4-point scale.
// Flows with equal beta get equal goodput; higher beta gets more.
void fig13() {
  std::printf("Fig. 13 — differentiated bandwidth via Eq. 1's beta "
              "(4-point scale)\n");
  const std::vector<std::vector<int>> combos = {
      {2, 2, 2, 2, 2}, {2, 2, 1, 1, 1}, {2, 2, 2, 1, 1},
      {3, 2, 2, 1, 1}, {3, 3, 2, 2, 1}, {4, 4, 4, 0, 0},
  };
  stats::Table t({"betas (x/4)", "F1", "F2", "F3", "F4", "F5", "total"});
  for (const auto& combo : combos) {
    std::vector<FlowSpec> flows;
    std::string label = "[";
    for (std::size_t i = 0; i < combo.size(); ++i) {
      flows.push_back(FlowSpec{.beta = combo[i] / 4.0});
      label += std::to_string(combo[i]);
      label += i + 1 < combo.size() ? "," : "]";
    }
    const RunResult r = run_dumbbell(
        {.mode = exp::Mode::kAcdc, .duration = sim::seconds(2),
         .rtt_probe = false},
        flows);
    std::vector<std::string> row{label};
    for (double g : r.goodputs_gbps) row.push_back(gbps(g));
    row.push_back(gbps(r.total_gbps()));
    t.add_row(row);
  }
  t.print("Fig. 13 — per-flow goodput (Gbps) by beta combination");
  std::printf("Paper shape: equal betas -> equal shares; higher beta -> "
              "strictly more; [4,4,4,0,0] starves the beta=0 flows to ~1 "
              "MSS/RTT while keeping the link full.\n");
}

// Figure 14: "Convergence tests: flows are added, then removed, every 30
// secs. AC/DC performance matches DCTCP."
// One bottleneck; flows join every T and leave in reverse order. The paper
// uses T=30s; we scale to T=1.5s (the convergence dynamics play out in
// RTTs, not wall-clock seconds). Prints each flow's goodput in every epoch
// and the drop rates (paper: CUBIC 0.17%, DCTCP/AC/DC 0%).
void convergence(exp::Mode mode) {
  constexpr int kFlows = 5;
  const sim::Time step = sim::milliseconds(1500);
  std::vector<FlowSpec> flows(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    flows[static_cast<std::size_t>(i)].start = step * i;
    flows[static_cast<std::size_t>(i)].stop = step * (2 * kFlows - 1 - i);
  }
  const RunResult r = run_dumbbell(
      {.mode = mode, .duration = step * (2 * kFlows - 1), .rtt_probe = false},
      flows);

  std::vector<std::string> headers{"epoch", "active"};
  for (int i = 1; i <= kFlows; ++i) {
    headers.push_back("F");
    headers.back() += std::to_string(i);
  }
  stats::Table t(headers);
  const auto buckets_per_epoch =
      static_cast<std::size_t>(step / sim::milliseconds(100));
  for (int epoch = 0; epoch < 2 * kFlows - 1; ++epoch) {
    const int active = epoch < kFlows ? epoch + 1 : 2 * kFlows - 1 - epoch;
    std::vector<std::string> row{std::to_string(epoch),
                                 std::to_string(active)};
    for (int f = 0; f < kFlows; ++f) {
      // Average the flow's series over this epoch, skipping the first
      // bucket (join transient).
      double sum = 0;
      int n = 0;
      for (std::size_t b = 1; b < buckets_per_epoch; ++b) {
        const std::size_t idx =
            static_cast<std::size_t>(epoch) * buckets_per_epoch + b;
        const auto& series = r.flow_series_gbps[static_cast<std::size_t>(f)];
        if (idx < series.size()) {
          sum += series[idx];
          ++n;
        }
      }
      row.push_back(gbps(n > 0 ? sum / n : 0.0));
    }
    t.add_row(row);
  }
  char title[128];
  std::snprintf(title, sizeof(title),
                "Fig. 14 (%s) — per-flow goodput (Gbps) per join/leave epoch",
                exp::to_string(mode));
  t.print(title);
  std::printf("drop rate: %.3f%%  (paper: CUBIC 0.17%%, DCTCP 0%%, AC/DC "
              "0%%)\n",
              100.0 * r.drop_rate);
}

void fig14() {
  std::printf("Fig. 14 — convergence: a flow joins every epoch, then leaves "
              "in reverse order\n");
  for (exp::Mode mode : kSchemes) convergence(mode);
  std::printf("\nPaper shape: DCTCP and AC/DC converge to the new fair "
              "share within an epoch at every step; CUBIC shows unequal "
              "shares and drops.\n");
}

// Figures 15 and 16: the ECN co-existence problem.
// One non-ECN CUBIC flow and one ECN DCTCP flow share a WRED/ECN
// bottleneck. Without AC/DC the switch *drops* CUBIC's (non-ECT) packets at
// the marking threshold while only *marking* DCTCP's, starving CUBIC and
// inflating its RTT (loss + retransmissions). With AC/DC every packet on
// the wire is ECT, so both flows share fairly and CUBIC's RTT collapses.
struct CoexResult {
  std::vector<double> cubic_series;  // Gbps per 100ms
  std::vector<double> dctcp_series;
  double cubic_gbps = 0;
  double dctcp_gbps = 0;
  stats::Sampler cubic_rtt_ms;
  double drop_rate = 0;
};

CoexResult run_coexistence(bool with_acdc) {
  exp::DumbbellConfig dc;
  dc.scenario = exp::scenario_config_for(exp::Mode::kDctcp);  // WRED/ECN on
  dc.pairs = 2;
  exp::Dumbbell bell(dc);
  exp::Scenario& s = bell.scenario();
  if (with_acdc) {
    for (int i = 0; i < 2; ++i) {
      s.attach_acdc(bell.sender(i), {});
      s.attach_acdc(bell.receiver(i), {});
    }
  }
  auto* cubic =
      s.add_bulk_flow(bell.sender(0), bell.receiver(0), s.tcp_config(tcp::CcId::kCubic), 0);
  auto* dctcp =
      s.add_bulk_flow(bell.sender(1), bell.receiver(1), s.tcp_config(tcp::CcId::kDctcp), 0);
  auto* probe = s.add_rtt_probe(bell.sender(0), bell.receiver(0),
                                s.tcp_config(tcp::CcId::kCubic), sim::milliseconds(50),
                                sim::milliseconds(1));
  const sim::Time duration = sim::seconds(2);
  s.run_until(duration);

  CoexResult out;
  out.cubic_gbps =
      cubic->goodput_bps(sim::milliseconds(300), duration) / 1e9;
  out.dctcp_gbps =
      dctcp->goodput_bps(sim::milliseconds(300), duration) / 1e9;
  for (std::size_t i = 0; i < cubic->deliveries().bucket_count(); ++i) {
    out.cubic_series.push_back(cubic->deliveries().bucket_rate_bps(i) / 1e9);
  }
  for (std::size_t i = 0; i < dctcp->deliveries().bucket_count(); ++i) {
    out.dctcp_series.push_back(dctcp->deliveries().bucket_rate_bps(i) / 1e9);
  }
  out.cubic_rtt_ms = probe->rtt_ms();
  out.drop_rate = s.fabric_stats().drop_rate();
  return out;
}

// Every other 100 ms bucket of the longer series: a starved flow's series
// ends early, and its missing buckets delivered nothing.
void print_series(const char* title, const CoexResult& r) {
  const auto at = [](const std::vector<double>& series, std::size_t i) {
    return stats::Table::num(i < series.size() ? series[i] : 0.0);
  };
  const std::size_t n =
      std::max(r.cubic_series.size(), r.dctcp_series.size());
  stats::Table t({"t (s)", "CUBIC Gbps", "DCTCP Gbps"});
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    t.add_row({stats::Table::num(0.1 * static_cast<double>(i)),
               at(r.cubic_series, i), at(r.dctcp_series, i)});
  }
  t.print(title);
}

void fig15() {
  std::printf("Figs. 15/16 — ECN and non-ECN flows on one WRED/ECN "
              "bottleneck\n");
  const CoexResult without = run_coexistence(false);
  const CoexResult with = run_coexistence(true);

  print_series("Fig. 15a — default (no AC/DC): CUBIC starves", without);
  print_series("Fig. 15b — with AC/DC: fair share", with);
  std::printf("\nAverages: without AC/DC: CUBIC=%.2f DCTCP=%.2f Gbps "
              "(paper: CUBIC near zero). With AC/DC: CUBIC=%.2f DCTCP=%.2f "
              "Gbps (paper: ~fair).\n",
              without.cubic_gbps, without.dctcp_gbps, with.cubic_gbps,
              with.dctcp_gbps);
  std::printf("Fabric drop rate: %.3f%% -> %.3f%% (paper: 0.18%% -> 0%%)\n",
              100 * without.drop_rate, 100 * with.drop_rate);

  print_percentiles("Fig. 16 — CUBIC RTT CDF (ms)",
                    {"percentile", "CUBIC w/o AC/DC (ms)",
                     "CUBIC w/ AC/DC (ms)"},
                    {&without.cubic_rtt_ms, &with.cubic_rtt_ms},
                    kRttPercentiles);
  std::printf("Paper: CUBIC's RTT is tens of ms without AC/DC "
              "(retransmission-dominated) and ~0.1-0.3 ms with it.\n");
}

// Figure 17: "AC/DC improves fairness when VMs implement different CCs."
//  (a) all five flows are host DCTCP (reference);
//  (b) the five different stacks of Fig. 1, but under AC/DC.
// Shape: (b) tracks (a) closely — max/min/mean/median nearly coincide —
// unlike the wild spread of Fig. 1a.
void fig17() {
  std::printf("Fig. 17 — AC/DC restores fairness across heterogeneous "
              "tenant stacks\n");
  std::printf("Paper: both panels cluster tightly around 2 Gbps "
              "(fairness ~0.99), unlike Fig. 1a.\n");
  std::printf("mean Jain: %.3f\n",
              fairness_panel("Fig. 17a — all DCTCP (reference)",
                             exp::Mode::kDctcp,
                             flows_of(std::vector<tcp::CcId>(
                                 5, tcp::CcId::kDctcp))));
  std::printf("mean Jain: %.3f\n",
              fairness_panel("Fig. 17b — 5 different CCs under AC/DC",
                             exp::Mode::kAcdc, flows_of(kFiveStacks)));
}

// Figures 18 & 19: many-to-one incast of long-lived flows on a single
// switch, sweeping the fan-in over {16, 32, 40, 47}.
//  Fig. 18a: average per-flow throughput  Fig. 18b: Jain's fairness
//  Fig. 19a: median RTT                   Fig. 19b: 99.9th-pct RTT
//  Fig. 19c: packet drop rate
// Paper shape: all schemes share fairly; CUBIC's RTT is ~3.5-4.5 ms with
// drops up to ~1%; DCTCP's RTT *grows* with fan-in (its 2-packet CWND floor
// is too high at 9K MTU); AC/DC stays lowest (its RWND floor is 1 MSS) and
// both keep a 0% drop rate.
void fig18_19() {
  std::printf("Figs. 18/19 — N-to-1 incast of long flows (9K MTU)\n");
  stats::Table tput(scheme_headers("senders", " Mbps"));
  stats::Table fair(scheme_headers("senders", ""));
  stats::Table p50(scheme_headers("senders", " ms"));
  stats::Table p999(scheme_headers("senders", " ms"));
  stats::Table drops(scheme_headers("senders", " %"));

  for (int n : {16, 32, 40, 47}) {
    std::vector<std::string> r_tput{std::to_string(n)};
    std::vector<std::string> r_fair{std::to_string(n)};
    std::vector<std::string> r_p50{std::to_string(n)};
    std::vector<std::string> r_p999{std::to_string(n)};
    std::vector<std::string> r_drop{std::to_string(n)};
    for (exp::Mode mode : kSchemes) {
      const RunResult r = run_incast(
          {.mode = mode, .duration = sim::seconds(1.5),
           .probe_interval = sim::microseconds(500)},
          n);
      r_tput.push_back(
          stats::Table::num(r.total_gbps() * 1000.0 / n));  // Mbps/flow
      r_fair.push_back(stats::Table::num(r.jain));
      r_p50.push_back(stats::Table::num(r.rtt_ms.median()));
      r_p999.push_back(stats::Table::num(r.rtt_ms.percentile(99.9)));
      r_drop.push_back(stats::Table::num(100.0 * r.drop_rate));
    }
    tput.add_row(r_tput);
    fair.add_row(r_fair);
    p50.add_row(r_p50);
    p999.add_row(r_p999);
    drops.add_row(r_drop);
  }
  tput.print("Fig. 18a — average per-flow throughput (Mbps)");
  fair.print("Fig. 18b — Jain's fairness index");
  p50.print("Fig. 19a — median RTT (ms)");
  p999.print("Fig. 19b — 99.9th percentile RTT (ms)");
  drops.print("Fig. 19c — packet drop rate (%)");
  std::printf("\nPaper: at 47 senders DCTCP cuts median RTT by 82%% vs "
              "CUBIC and AC/DC by 97%%; AC/DC < DCTCP because RWND can fall "
              "below DCTCP's 2-packet CWND floor. DCTCP & AC/DC: 0%% "
              "drops.\n");
}

// Figure 20: "TCP RTT when almost all ports are congested."
// Pressure on the switch's dynamic shared-buffer allocation: hosts are
// split into group A (N hosts) and B (2 hosts). Every A host runs 4
// all-to-all flows within A *and* one flow into B1 (an N-to-1 incast), so
// nearly every egress port is congested. The probe measures RTT from B2 to
// B1 through the most congested port.
// Paper (48 ports): CUBIC p99.9 huge (~4% drops on the hot port); DCTCP
// and AC/DC keep every percentile low with 0% drops, AC/DC lowest.
// Scaled here to 24 A-hosts to keep runtime sane; the buffer pressure is
// preserved by scaling nothing else.
constexpr int kGroupA = 24;

RunResult run_buffer_pressure(exp::Mode mode) {
  const RunConfig cfg{.mode = mode, .duration = sim::seconds(1.2)};
  ModeStar star(cfg, kGroupA + 2);  // + B1, B2
  exp::Scenario& s = star.scenario();
  const tcp::TcpConfig& tcp = star.tcp;

  host::Host* b1 = star.host(kGroupA);
  host::Host* b2 = star.host(kGroupA + 1);
  // Probe first; then the 5 flows per host, starts staggered.
  auto* probe = s.add_rtt_probe(b2, b1, tcp, 0, sim::milliseconds(1));
  std::vector<host::BulkApp*> incast;
  for (int i = 0; i < kGroupA; ++i) {
    const sim::Time start = sim::milliseconds(10) + i * sim::milliseconds(1);
    for (int d = 1; d <= 4; ++d) {
      s.add_bulk_flow(star.host(i), star.host((i + d) % kGroupA), tcp, start);
    }
    incast.push_back(s.add_bulk_flow(star.host(i), b1, tcp, start));
  }
  s.run_until(cfg.duration);
  // The paper's throughput/fairness row is over the flows crossing the most
  // congested port (the N-to-1 incast into B1).
  return measure(cfg, s, incast, probe);
}

void fig20() {
  std::printf("Fig. 20 — RTT through the most congested port when almost "
              "all ports are congested\n");
  std::vector<RunResult> rs;
  for (exp::Mode mode : kSchemes) rs.push_back(run_buffer_pressure(mode));
  print_percentiles("Fig. 20 — probe RTT percentiles (ms)",
                    scheme_headers("percentile", " ms"),
                    {&rs[0].rtt_ms, &rs[1].rtt_ms, &rs[2].rtt_ms},
                    {50, 95, 99, 99.9});
  std::printf("\nAvg incast-flow throughput (paper @46-to-1: 214/214/201 "
              "Mbps; here 24-to-1 -> fair share ~413 Mbps): "
              "CUBIC=%.0f DCTCP=%.0f AC/DC=%.0f Mbps\n",
              rs[0].total_gbps() * 1000 / kGroupA,
              rs[1].total_gbps() * 1000 / kGroupA,
              rs[2].total_gbps() * 1000 / kGroupA);
  std::printf("Fairness (paper: >0.98 all): %.3f / %.3f / %.3f\n",
              rs[0].jain, rs[1].jain, rs[2].jain);
  std::printf("Drop rate %% (paper: CUBIC 0.34%%, others 0%%): "
              "%.3f / %.3f / %.3f\n",
              100 * rs[0].drop_rate, 100 * rs[1].drop_rate,
              100 * rs[2].drop_rate);
}

// Figs. 21/22 share their mice: every server i also sends a 16KB mouse to
// (i+8) mod 17 every 100 ms, next to the background transfers of one
// `Driver` per server, for 4 s.
constexpr std::int64_t kMouseBytes = 16 * 1024;

// The three schemes' mice and background FCT tables of Figs. 21a/b and
// 22a/b.
template <typename Driver>
Fcts run_mice_and_background(const char* fig) {
  const auto add = [](ModeStar& star, int i, stats::FctCollector* fct,
                      Drivers& drivers) {
    drivers.push_back(std::make_unique<Driver>(star, i, fct));
    star.scenario().add_message_app(
        star.host(i), star.host((i + 8) % star.host_count()), star.tcp, 0,
        sim::milliseconds(100), kMouseBytes, fct);
  };
  Fcts fcts = run_star_fcts(10 * 1024 * 1024, sim::seconds(4), add);
  print_percentiles(std::string("Fig. ") + fig + "a — mice (16KB) FCT (ms)",
                    scheme_headers("percentile", " ms"),
                    {&fcts[0]->mice_ms(), &fcts[1]->mice_ms(),
                     &fcts[2]->mice_ms()},
                    kFctPercentiles);
  print_percentiles(std::string("Fig. ") + fig + "b — background FCT (ms)",
                    scheme_headers("percentile", " ms"),
                    {&fcts[0]->background_ms(), &fcts[1]->background_ms(),
                     &fcts[2]->background_ms()},
                    kFctPercentiles);
  return fcts;
}

// Figure 21: the concurrent-stride workload on 17 hosts behind one switch.
// Each server i sends a large background flow to servers [i+1, i+4] mod 17
// in sequential fashion, looping for the whole run, while simultaneously
// sending a 16KB mouse to server (i+8) mod 17 every 100 ms. CDFs of mice
// and background FCTs. Receiver ports congest whenever several servers'
// stride pointers collide on one destination, which is where the CUBIC
// mice pick up their losses and queueing.
// Paper: DCTCP/AC/DC cut the mice median FCT by ~77% and the 99.9th pct by
// >90% vs CUBIC; background FCTs similar for all (CUBIC slightly worse from
// unfairness). Background flows scaled 512MB -> 32MB (same 17x4 pattern) to
// keep runtime tractable.
constexpr std::int64_t kBackgroundBytes = 64 * 1024 * 1024;

// Sequential background transfers: send kBackgroundBytes to each of the 4
// stride destinations, one after another, on persistent connections.
class StrideDriver : public PeerChannels {
 public:
  StrideDriver(ModeStar& star, int src, stats::FctCollector* fct)
      : PeerChannels(star, src, next_peers(star, src, 4), fct),
        sim_(&star.scenario().simulator()) {
    // Random phase per host: without it every sender rotates in lockstep
    // and no two strides ever collide on a receiver.
    sim::Rng& rng = star.scenario().rng();
    start_offset_ = sim::milliseconds(rng.uniform_int(0, 200));
    index_ = static_cast<std::size_t>(rng.uniform_int(0, 3));
  }

 private:
  void start() override { sim_->schedule(start_offset_, [this] { next(); }); }
  // One transfer at a time, rotating over the four destinations, looping
  // for the whole experiment.
  void next() override { send(index_++ % channel_count(), kBackgroundBytes); }

  sim::Simulator* sim_;
  sim::Time start_offset_ = 0;
  std::size_t index_ = 0;
};

void fig21() {
  std::printf("Fig. 21 — concurrent stride workload (17 hosts, one "
              "switch)\n");
  const Fcts fcts = run_mice_and_background<StrideDriver>("21");
  const stats::Sampler& cubic = fcts[0]->mice_ms();
  std::printf("\nMedian mice FCT reduction vs CUBIC (paper: DCTCP 77%%, "
              "AC/DC 76%%): DCTCP %.0f%%, AC/DC %.0f%%\n",
              cut_pct(cubic, fcts[1]->mice_ms(), 50),
              cut_pct(cubic, fcts[2]->mice_ms(), 50));
  std::printf("99.9p mice FCT reduction vs CUBIC (paper: DCTCP 91%%, AC/DC "
              "93%%): DCTCP %.0f%%, AC/DC %.0f%%\n",
              cut_pct(cubic, fcts[1]->mice_ms(), 99.9),
              cut_pct(cubic, fcts[2]->mice_ms(), 99.9));
}

// Figure 22: the shuffle workload. Every server sends a large transfer to
// every other server in random order, at most 2 outgoing transfers at a
// time; every server i also sends a 16KB mouse to (i+8) mod 17 every
// 100 ms. CDFs of mice and background FCTs.
// Paper: DCTCP/AC/DC cut the mice median FCT by ~72/71% and the 99.9th pct
// by 55/73% vs CUBIC; large-flow FCTs nearly identical for all three.
// Transfers scaled 512MB -> 16MB (same 17x16 shuffle pattern).
constexpr std::int64_t kTransferBytes = 16 * 1024 * 1024;
constexpr int kConcurrent = 2;

// Per-source shuffle: persistent connection to every peer; destinations
// visited in a seeded random order, at most kConcurrent in flight.
class ShuffleDriver : public PeerChannels {
 public:
  ShuffleDriver(ModeStar& star, int src, stats::FctCollector* fct)
      : PeerChannels(star, src, shuffled_peers(star, src), fct) {}

 private:
  static std::vector<int> shuffled_peers(ModeStar& star, int src) {
    std::vector<int> order = next_peers(star, src, star.host_count() - 1);
    star.scenario().rng().shuffle(order);
    return order;
  }

  void start() override {
    for (int k = 0; k < kConcurrent; ++k) next();
  }
  // The paper repeats the shuffle for 30 runs; we loop for the whole
  // simulated window.
  void next() override { send(next_++ % channel_count(), kTransferBytes); }

  std::size_t next_ = 0;
};

void fig22() {
  std::printf("Fig. 22 — shuffle workload (17 hosts, <=2 concurrent "
              "transfers per sender)\n");
  const Fcts fcts = run_mice_and_background<ShuffleDriver>("22");
  const stats::Sampler& cubic = fcts[0]->mice_ms();
  std::printf("\nMedian mice FCT reduction vs CUBIC (paper: DCTCP 72%%, "
              "AC/DC 71%%): DCTCP %.0f%%, AC/DC %.0f%%\n",
              cut_pct(cubic, fcts[1]->mice_ms(), 50),
              cut_pct(cubic, fcts[2]->mice_ms(), 50));
}

// Figure 23: trace-driven workloads. Every server keeps a long-lived
// connection to every other server; each of several applications per server
// samples a message size from the web-search [DCTCP] or data-mining [VL2]
// distribution and sends it to a random peer, sequentially. CDF of mice
// (flows < 10KB) FCTs.
// Paper: web-search — DCTCP/AC/DC cut median mice FCT by ~77/76% and the
// 99.9th pct by 50/55%; data-mining — median ~72/73%, 99.9th 36/53%.
// Scaled: 3 apps per server (paper: 5), 2 s of traffic.
constexpr int kAppsPerServer = 3;
constexpr std::int64_t kMiceThreshold = 10 * 1024;

// One application: connections to all peers; sample -> send -> wait -> next.
class TraceApp : public PeerChannels {
 public:
  TraceApp(ModeStar& star, int src,
           const workload::EmpiricalSizeDistribution& dist,
           stats::FctCollector* fct)
      : PeerChannels(star, src, next_peers(star, src, star.host_count() - 1),
                     fct),
        rng_(star.scenario().rng()),
        dist_(dist) {}

 private:
  void next() override {
    const std::int64_t size = dist_.sample(rng_);
    const auto idx = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(channel_count()) - 1));
    send(idx, size);
  }

  sim::Rng& rng_;
  const workload::EmpiricalSizeDistribution& dist_;
};

void trace_workload(const char* name,
                    const workload::EmpiricalSizeDistribution& dist) {
  const auto add = [&dist](ModeStar& star, int i, stats::FctCollector* fct,
                           Drivers& apps) {
    for (int a = 0; a < kAppsPerServer; ++a) {
      apps.push_back(std::make_unique<TraceApp>(star, i, dist, fct));
    }
  };
  const Fcts fcts = run_star_fcts(kMiceThreshold, sim::seconds(2), add);
  const stats::Sampler& cubic = fcts[0]->mice_ms();
  const stats::Sampler& dctcp = fcts[1]->mice_ms();
  const stats::Sampler& acdc = fcts[2]->mice_ms();
  char title[128];
  std::snprintf(title, sizeof(title),
                "Fig. 23 — %s: mice (<10KB) FCT (ms); %zu/%zu/%zu mice",
                name, cubic.count(), dctcp.count(), acdc.count());
  print_percentiles(title, scheme_headers("percentile", " ms"),
                    {&cubic, &dctcp, &acdc}, kFctPercentiles);
  std::printf("median mice FCT reduction vs CUBIC: DCTCP %.0f%%, AC/DC "
              "%.0f%%\n",
              cut_pct(cubic, dctcp, 50), cut_pct(cubic, acdc, 50));
}

void fig23() {
  std::printf("Fig. 23 — trace-driven workloads (17 hosts, %d apps/server, "
              "random destinations)\n",
              kAppsPerServer);
  trace_workload("web-search", workload::web_search_distribution());
  trace_workload("data-mining", workload::data_mining_distribution());
  std::printf("\nPaper: web-search median reductions 77%%/76%% "
              "(DCTCP/AC-DC), data-mining 72%%/73%%; AC/DC tracks DCTCP at "
              "every percentile.\n");
}

// Table 1: "AC/DC works with many congestion control variants."
// Dumbbell, 5 flows. Rows:
//   CUBIC* : host CUBIC + plain vSwitch, switch ECN off   (baseline)
//   DCTCP* : host DCTCP + plain vSwitch, switch ECN on    (target)
//   CUBIC/Reno/DCTCP/Illinois/HighSpeed/Vegas : that host stack + AC/DC,
//                                               switch ECN on
// Columns: 50th/99th percentile RTT, average goodput, Jain fairness — for
// MTU 1.5KB and 9KB.
// Paper shape: every AC/DC row matches DCTCP* (~130-150us p50 RTT at least
// an order below CUBIC*'s ~3.2-3.4ms; goodput ~1.9 Gbps; fairness 0.99).
void cc_variants(std::int64_t mtu, sim::Time duration) {
  struct Row {
    const char* label;
    exp::Mode mode;
    tcp::CcId host_cc;
  };
  const Row rows[] = {
      {"CUBIC*", exp::Mode::kCubic, tcp::CcId::kCubic},
      {"DCTCP*", exp::Mode::kDctcp, tcp::CcId::kDctcp},
      {"CUBIC", exp::Mode::kAcdc, tcp::CcId::kCubic},
      {"Reno", exp::Mode::kAcdc, tcp::CcId::kReno},
      {"DCTCP", exp::Mode::kAcdc, tcp::CcId::kDctcp},
      {"Illinois", exp::Mode::kAcdc, tcp::CcId::kIllinois},
      {"HighSpeed", exp::Mode::kAcdc, tcp::CcId::kHighspeed},
      {"Vegas", exp::Mode::kAcdc, tcp::CcId::kVegas},
  };
  stats::Table t({"CC variant", "p50 RTT us", "p99 RTT us", "avg Gbps",
                  "fairness"});
  for (const Row& row : rows) {
    const RunResult r = run_dumbbell(
        {.mode = row.mode, .mtu_bytes = mtu, .duration = duration},
        flows_of(std::vector<tcp::CcId>(5, row.host_cc)));
    t.add_row({row.label,
               stats::Table::num(r.rtt_ms.median() * 1000.0),
               stats::Table::num(r.rtt_ms.percentile(99) * 1000.0),
               gbps(r.total_gbps() / 5.0), stats::Table::num(r.jain)});
  }
  char title[96];
  std::snprintf(title, sizeof(title), "Table 1 — MTU %.1fKB", mtu / 1000.0);
  t.print(title);
}

void table1() {
  std::printf("Table 1 — AC/DC with many tenant CC variants (dumbbell, 5 "
              "flows)\n");
  std::printf("Paper @9K: CUBIC* 3448us/3865us/1.98G/0.98; DCTCP* "
              "142us/259us/1.98G/0.99; all AC/DC rows ~142-152us "
              "p50, 1.97-1.98G, 0.99.\n");
  cc_variants(9000, sim::seconds(2));
  cc_variants(1500, sim::seconds(1.2));
}

// Ablations over AC/DC's design choices (DESIGN.md §4):
//  A. Enforced-window floor: 1 MSS (ours) vs 2 MSS (host DCTCP's CWND
//     floor) vs 4KB sub-MSS, at 47-to-1 incast — the mechanism behind
//     Fig. 19a's AC/DC-beats-DCTCP result.
//  B. DCTCP gain g: 1/4, 1/16 (default), 1/64 on the dumbbell — stability
//     vs responsiveness of the alpha EWMA.
//  C. Feedback transport: piggy-backed PACKs vs dedicated FACKs only
//     (forced by a tiny feedback MTU) — the §3.2 "most feedback takes the
//     form of PACKs" efficiency claim.
//  D. Enforcement on vs observer mode, CUBIC tenants on the dumbbell — what
//     the RWND rewrite itself buys.
void ablation_floor() {
  stats::Table t({"rwnd floor", "p50 RTT ms", "p99.9 RTT ms",
                  "avg Mbps/flow", "fairness"});
  struct Row {
    const char* label;
    std::int64_t floor_bytes;
  };
  for (const Row& row : {Row{"1 MSS (default)", 0}, Row{"2 MSS", 2 * 8960},
                         Row{"4 KB (sub-MSS)", 4096}}) {
    RunConfig cfg{.mode = exp::Mode::kAcdc, .duration = sim::seconds(1.2),
                  .probe_interval = sim::microseconds(500)};
    cfg.acdc.min_rwnd_bytes = row.floor_bytes;
    const RunResult r = run_incast(cfg, 47);
    t.add_row({row.label, stats::Table::num(r.rtt_ms.median()),
               stats::Table::num(r.rtt_ms.percentile(99.9)),
               stats::Table::num(r.total_gbps() * 1000.0 / 47),
               stats::Table::num(r.jain)});
  }
  t.print("Ablation A — enforced-window floor at 47-to-1 incast");
  std::printf("Lower floors keep the standing queue smaller (the Fig. 19a "
              "mechanism); sub-MSS floors trade queueing for small-segment "
              "overhead.\n");
}

void ablation_gain() {
  stats::Table t({"DCTCP g", "p50 RTT ms", "p99.9 RTT ms", "avg Gbps",
                  "fairness"});
  for (double g : {1.0 / 4, 1.0 / 16, 1.0 / 64}) {
    RunConfig cfg{.mode = exp::Mode::kAcdc, .duration = sim::seconds(1.5)};
    cfg.acdc.vcc.dctcp.g = g;
    const RunResult r = run_dumbbell(cfg, std::vector<FlowSpec>(5));
    t.add_row({stats::Table::num(g), stats::Table::num(r.rtt_ms.median()),
               stats::Table::num(r.rtt_ms.percentile(99.9)),
               gbps(r.total_gbps() / 5), stats::Table::num(r.jain)});
  }
  t.print("Ablation B — virtual-DCTCP alpha gain g (dumbbell)");
}

void ablation_feedback() {
  stats::Table t({"feedback", "avg Gbps", "p50 RTT ms", "PACKs", "FACKs"});
  for (bool fack_only : {false, true}) {
    exp::DumbbellConfig dc;
    dc.scenario = exp::scenario_config_for(exp::Mode::kAcdc);
    exp::Dumbbell bell(dc);
    exp::Scenario& s = bell.scenario();
    vswitch::AcdcConfig acdc;
    if (fack_only) acdc.mtu_bytes = 48;  // PACK never fits -> always FACK
    std::int64_t packs = 0;
    std::int64_t facks = 0;
    std::vector<vswitch::AcdcVswitch*> vss;
    for (int i = 0; i < bell.pairs(); ++i) {
      vss.push_back(s.attach_acdc(bell.sender(i), acdc));
      vss.push_back(s.attach_acdc(bell.receiver(i), acdc));
    }
    std::vector<host::BulkApp*> apps;
    for (int i = 0; i < bell.pairs(); ++i) {
      apps.push_back(s.add_bulk_flow(bell.sender(i), bell.receiver(i),
                                     s.tcp_config(tcp::CcId::kCubic), 0));
    }
    auto* probe = s.add_rtt_probe(bell.sender(0), bell.receiver(0),
                                  s.tcp_config(tcp::CcId::kCubic),
                                  sim::milliseconds(50),
                                  sim::milliseconds(1));
    s.run_until(sim::seconds(1.5));
    double total = 0;
    for (auto* a : apps) {
      total += a->goodput_bps(sim::milliseconds(300), sim::seconds(1.5));
    }
    for (auto* vs : vss) {
      packs += vs->stats().packs_attached;
      facks += vs->stats().facks_sent;
    }
    t.add_row({fack_only ? "FACK-only (forced)" : "PACK (default)",
               gbps(total / 5 / 1e9),
               stats::Table::num(probe->rtt_ms().median()),
               std::to_string(packs), std::to_string(facks)});
  }
  t.print("Ablation C — PACK piggy-backing vs dedicated FACK packets");
  std::printf("FACK-only doubles the reverse-path packet count for the same "
              "feedback; piggy-backing is effectively free (§3.2).\n");
}

void ablation_enforcement() {
  stats::Table t({"enforcement", "p50 RTT ms", "p99.9 RTT ms", "drop %"});
  for (bool enforce : {true, false}) {
    RunConfig cfg{.mode = exp::Mode::kAcdc, .duration = sim::seconds(1.5)};
    if (!enforce) cfg.acdc = {.enforce = false};
    const RunResult r = run_dumbbell(cfg, std::vector<FlowSpec>(5));
    t.add_row({enforce ? "on (AC/DC)" : "off (observer)",
               stats::Table::num(r.rtt_ms.median()),
               stats::Table::num(r.rtt_ms.percentile(99.9)),
               stats::Table::num(100 * r.drop_rate)});
  }
  t.print("Ablation D — RWND enforcement on/off, CUBIC tenants");
  std::printf("Observer mode computes the same windows but CUBIC keeps "
              "filling the buffer; only the rewrite changes behaviour.\n");
}

void ablations() {
  std::printf("AC/DC design-choice ablations\n");
  ablation_floor();
  ablation_gain();
  ablation_feedback();
  ablation_enforcement();
}

// §2.3 — why flow-level congestion control, not VM-level bandwidth
// arbitration: "Communication between a pair of VMs may consist of multiple
// flows, each of which may traverse a distinct path. Therefore, enforcing
// rate limits on a VM-to-VM level is too coarse-grained."
//
// Scenario: a 2-leaf / 2-spine ECMP fabric. One VM pair exchanges several
// flows which ECMP spreads over the two core paths; a competing tenant
// congests exactly ONE spine path. Three policies:
//   (a) nothing          — the colliding flows overrun the hot core link;
//   (b) VM-level limiter — an EyeQ-style per-VM rate cap at the fair
//                          aggregate (assumes a congestion-free core): it
//                          throttles the flows on the COLD path just as
//                          hard, yet the hot path stays congested;
//   (c) AC/DC            — per-flow DCTCP lets each flow adapt to its own
//                          path: hot-path flows back off, cold-path flows
//                          keep running, queues stay at the marking point.
constexpr int kVmFlows = 8;

struct GranularityResult {
  RunResult vm;                   // the VM pair's flows
  double rival_goodput_gbps = 0;  // the competing tenant
  double hot_uplink_queue_kb = 0; // time-averaged-ish sample of the hot path
};

enum class Policy { kNone, kEyeQ, kStaticCap, kAcdc };

GranularityResult run_granularity(Policy policy) {
  exp::LeafSpineConfig cfg;
  cfg.scenario =
      exp::scenario_config_for(policy == Policy::kAcdc ? exp::Mode::kAcdc
                                                       : exp::Mode::kCubic);
  cfg.hosts_per_leaf = 4;
  exp::LeafSpine fabric(cfg);
  exp::Scenario& s = fabric.scenario();

  host::Host* vm_a = fabric.host(0, 0);
  host::Host* vm_b = fabric.host(1, 0);
  host::Host* rival_src = fabric.host(0, 1);
  host::Host* rival_dst = fabric.host(1, 1);

  if (policy == Policy::kAcdc) {
    for (host::Host* h : {vm_a, vm_b, rival_src, rival_dst}) {
      s.attach_acdc(h, {});
    }
  } else if (policy == Policy::kEyeQ) {
    // EyeQ's single-switch abstraction arbitrates edge ports only. Here
    // every sender and receiver owns its 10G edge port outright, so the
    // computed per-VM rate is the full line rate — the limiter cannot see
    // (let alone fix) the core collision. Identical to "none" by design.
    s.attach_shaper(vm_a, sim::gigabits_per_second(10), 128 * 1024);
    s.attach_shaper(rival_src, sim::gigabits_per_second(10), 128 * 1024);
  } else if (policy == Policy::kStaticCap) {
    // A deliberately conservative static 5G per-VM cap: it can mask the
    // collision, but only by sacrificing the cold path's capacity too.
    s.attach_shaper(vm_a, sim::gigabits_per_second(5), 128 * 1024);
    s.attach_shaper(rival_src, sim::gigabits_per_second(5), 128 * 1024);
  }

  // The rival: one elephant whose ECMP hash lands on some spine; probe
  // which one by observing the uplinks after it starts.
  auto* rival = s.add_bulk_flow(rival_src, rival_dst,
                                s.tcp_config(tcp::CcId::kCubic), 0);
  // The VM pair: kVmFlows flows spread by ECMP over both spines.
  std::vector<host::BulkApp*> vm_flows;
  for (int i = 0; i < kVmFlows; ++i) {
    vm_flows.push_back(s.add_bulk_flow(vm_a, vm_b, s.tcp_config(tcp::CcId::kCubic),
                                       sim::milliseconds(1) + i * 100'000));
  }

  // Sample the hot uplink's queue periodically.
  stats::Sampler hot_queue_kb;
  std::function<void()> sampler = [&] {
    std::int64_t q0 = fabric.uplink(0, 0)->queue().byte_length();
    std::int64_t q1 = fabric.uplink(0, 1)->queue().byte_length();
    hot_queue_kb.add(static_cast<double>(std::max(q0, q1)) / 1024.0);
    s.simulator().schedule(sim::milliseconds(1), sampler);
  };
  s.simulator().schedule(sim::milliseconds(100), sampler);

  const RunConfig measured{.duration = sim::seconds(1.5)};
  s.run_until(measured.duration);
  return {measure(measured, s, vm_flows, nullptr),
          rival->goodput_bps(measured.measure_from, measured.duration) / 1e9,
          hot_queue_kb.mean()};
}

void granularity() {
  std::printf("§2.3 — flow-level vs VM-level granularity on an ECMP "
              "fabric\n");
  stats::Table t({"policy", "VM-pair Gbps", "rival Gbps",
                  "hot-uplink queue KB", "VM flow fairness", "drop %"});
  const char* names[4] = {"none (CUBIC)", "EyeQ edge arbitration (=10G cap)",
                          "static 5G VM cap", "AC/DC per-flow DCTCP"};
  const Policy policies[4] = {Policy::kNone, Policy::kEyeQ,
                              Policy::kStaticCap, Policy::kAcdc};
  for (int i = 0; i < 4; ++i) {
    const GranularityResult r = run_granularity(policies[i]);
    t.add_row({names[i], stats::Table::num(r.vm.total_gbps()),
               stats::Table::num(r.rival_goodput_gbps),
               stats::Table::num(r.hot_uplink_queue_kb),
               stats::Table::num(r.vm.jain),
               stats::Table::num(100.0 * r.vm.drop_rate)});
  }
  t.print("VM-to-VM arbitration cannot fix a congested core path");
  std::printf("Edge arbitration computes no throttle (it cannot see the "
              "core collision); a conservative static cap hides it only by "
              "halving the VM pair's throughput on the COLD path too; "
              "AC/DC keeps full throughput with the hot-path queue pinned "
              "near the marking point and 0%% drops.\n");
}

struct Exhibit {
  const char* name;
  void (*run)();
};

// Paper order; also the order of tests/golden/repro.sha256.
constexpr Exhibit kExhibits[] = {
    {"fig01", fig01},       {"fig02", fig02},
    {"fig06", fig06},       {"fig08", fig08},
    {"fig09", fig09},       {"fig10", fig10},
    {"fig13", fig13},       {"fig14", fig14},
    {"fig15", fig15},       {"fig17", fig17},
    {"fig18_19", fig18_19}, {"fig20", fig20},
    {"fig21", fig21},       {"fig22", fig22},
    {"fig23", fig23},       {"table1", table1},
    {"ablations", ablations}, {"granularity", granularity},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Exhibit*> chosen;
  for (int i = 1; i < argc; ++i) {
    const Exhibit* e = std::find_if(
        std::begin(kExhibits), std::end(kExhibits),
        [&](const Exhibit& x) { return std::strcmp(x.name, argv[i]) == 0; });
    if (e == std::end(kExhibits)) {
      std::fprintf(stderr, "acdc_repro: unknown exhibit '%s'\n"
                   "usage: acdc_repro [exhibit...]\nexhibits:", argv[i]);
      for (const Exhibit& x : kExhibits) std::fprintf(stderr, " %s", x.name);
      std::fprintf(stderr, "\n");
      return 1;
    }
    chosen.push_back(e);
  }
  if (chosen.empty()) {
    for (const Exhibit& e : kExhibits) chosen.push_back(&e);
  }
  for (const Exhibit* e : chosen) e->run();
  return 0;
}
