// Figure 9: "AC/DC's RWND tracks DCTCP's CWND."
// Host stacks run DCTCP; AC/DC runs in observer mode (computes its window
// and logs it instead of overwriting the ACK, exactly the paper's
// methodology). We align the vSwitch's computed RWND with the host stack's
// CWND (the tcpprobe analogue) and print:
//  (a) both series over the first 100 ms of a flow;
//  (b) 100 ms moving averages over 5 s (scaled to 2 s here);
// plus tracking-error statistics. 1.5KB MTU as in the paper.
#include <cstdio>
#include <map>

#include "exp/dumbbell.h"
#include "exp/mode.h"
#include "stats/percentile.h"
#include "stats/table.h"

using namespace acdc;

int main() {
  exp::DumbbellConfig dc;
  dc.scenario = exp::scenario_config_for(exp::Mode::kDctcp, 1500);
  exp::Dumbbell bell(dc);
  exp::Scenario& s = bell.scenario();

  const vswitch::AcdcConfig observer = vswitch::AcdcConfig::observer();
  std::vector<vswitch::AcdcVswitch*> vswitches;
  for (int i = 0; i < bell.pairs(); ++i) {
    vswitches.push_back(s.attach_acdc(bell.sender(i), observer));
    s.attach_acdc(bell.receiver(i), observer);
  }

  const std::uint32_t mss = s.config().mss();
  tcp::TcpConnection* conn0 = nullptr;
  sim::Time flow_start = sim::kNoTime;

  struct Pair {
    double rwnd_mss;
    double cwnd_mss;
  };
  std::vector<std::pair<double, Pair>> series;  // (seconds since start, windows)
  obs::FlightRecorder window_log(1);  // the listener sees every event
  vswitches[0]->attach_observability({.recorder = &window_log});
  window_log.add_listener([&](const obs::TraceEvent& ev) {
    if (ev.type != obs::EventType::kWindowEnforced || conn0 == nullptr) return;
    if (flow_start == sim::kNoTime) flow_start = ev.t;
    series.push_back({sim::to_seconds(ev.t - flow_start),
                      Pair{static_cast<double>(ev.a) / mss,
                           static_cast<double>(conn0->cwnd_bytes()) / mss}});
  });

  const tcp::TcpConfig tcp = exp::host_tcp_config(s, exp::Mode::kDctcp);
  std::vector<host::BulkApp*> apps;
  for (int i = 0; i < bell.pairs(); ++i) {
    apps.push_back(s.add_bulk_flow(bell.sender(i), bell.receiver(i), tcp, 0));
  }
  s.run_until(sim::milliseconds(20));
  conn0 = apps[0]->sender_connection();
  s.run_until(sim::seconds(2));

  // (a) first 100 ms, sampled every ~5 ms.
  stats::Table a({"t (ms)", "AC/DC RWND (MSS)", "DCTCP CWND (MSS)"});
  double next_sample = 0.0;
  for (const auto& [t, w] : series) {
    if (t * 1000 < next_sample || t > 0.1) continue;
    a.add_row({stats::Table::num(t * 1000), stats::Table::num(w.rwnd_mss),
               stats::Table::num(w.cwnd_mss)});
    next_sample = t * 1000 + 5.0;
  }
  a.print("Fig. 9a — first 100 ms of a flow (windows in MSS)");

  // (b) 100 ms moving averages.
  stats::Table b({"t (s)", "avg RWND (MSS)", "avg CWND (MSS)"});
  std::map<int, std::pair<stats::Sampler, stats::Sampler>> buckets;
  for (const auto& [t, w] : series) {
    auto& bucket = buckets[static_cast<int>(t * 10)];
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
  for (const auto& [t, w] : series) {
    if (t < 0.05 || w.cwnd_mss <= 0) continue;
    ratio.add(w.rwnd_mss / w.cwnd_mss);
  }
  std::printf("\nTracking ratio RWND/CWND after warm-up: median=%.2f "
              "p10=%.2f p90=%.2f over %zu samples\n",
              ratio.median(), ratio.percentile(10), ratio.percentile(90),
              ratio.count());
  std::printf("Paper: the two curves are visually indistinguishable "
              "(ratio ~1).\n");
  return 0;
}
