// Figure 10: "Who limits TCP throughput when AC/DC is run with CUBIC?"
// Host stack CUBIC, AC/DC enforcing. The VM's CWND keeps growing (AC/DC
// hides ECN and prevents loss), so AC/DC's RWND becomes — and stays — the
// limiting window.
//  (a) windows over the first 100 ms;
//  (b) windows 2 seconds in (scaled: 1 second in);
// plus the fraction of ACKs where the enforced RWND < the VM's CWND.
// 1.5KB MTU as in the paper.
#include <cstdio>

#include "exp/dumbbell.h"
#include "exp/mode.h"
#include "stats/percentile.h"
#include "stats/table.h"

using namespace acdc;

int main() {
  exp::DumbbellConfig dc;
  dc.scenario = exp::scenario_config_for(exp::Mode::kAcdc, 1500);
  exp::Dumbbell bell(dc);
  exp::Scenario& s = bell.scenario();

  std::vector<vswitch::AcdcVswitch*> vswitches;
  for (int i = 0; i < bell.pairs(); ++i) {
    vswitches.push_back(s.attach_acdc(bell.sender(i), {}));
    s.attach_acdc(bell.receiver(i), {});
  }

  const std::uint32_t mss = s.config().mss();
  tcp::TcpConnection* conn0 = nullptr;
  sim::Time flow_start = sim::kNoTime;
  struct Sample {
    double t_s;
    double rwnd_mss;
    double cwnd_mss;
  };
  std::vector<Sample> series;
  std::int64_t limiting = 0;
  std::int64_t total = 0;
  obs::FlightRecorder window_log(1);  // the listener sees every event
  vswitches[0]->attach_observability({.recorder = &window_log});
  window_log.add_listener([&](const obs::TraceEvent& ev) {
    if (ev.type != obs::EventType::kWindowEnforced || conn0 == nullptr) return;
    if (flow_start == sim::kNoTime) flow_start = ev.t;
    const double cwnd = static_cast<double>(conn0->cwnd_bytes());
    ++total;
    if (static_cast<double>(ev.a) < cwnd) ++limiting;
    series.push_back({sim::to_seconds(ev.t - flow_start),
                      static_cast<double>(ev.a) / mss, cwnd / mss});
  });

  const tcp::TcpConfig tcp = s.tcp_config(tcp::CcId::kCubic);
  std::vector<host::BulkApp*> apps;
  for (int i = 0; i < bell.pairs(); ++i) {
    apps.push_back(s.add_bulk_flow(bell.sender(i), bell.receiver(i), tcp, 0));
  }
  s.run_until(sim::milliseconds(20));
  conn0 = apps[0]->sender_connection();
  s.run_until(sim::milliseconds(1500));

  auto panel = [&](const char* title, double from_s, double to_s) {
    stats::Table t({"t (ms)", "AC/DC RWND (MSS)", "CUBIC CWND (MSS)"});
    double next = from_s * 1000;
    for (const Sample& smp : series) {
      if (smp.t_s < from_s || smp.t_s > to_s) continue;
      if (smp.t_s * 1000 < next) continue;
      t.add_row({stats::Table::num(smp.t_s * 1000),
                 stats::Table::num(smp.rwnd_mss),
                 stats::Table::num(smp.cwnd_mss)});
      next = smp.t_s * 1000 + 5.0;
    }
    t.print(title);
  };
  panel("Fig. 10a — windows from flow start (first 100 ms)", 0.0, 0.1);
  panel("Fig. 10b — windows 1 s in", 1.0, 1.1);

  std::printf("\nEnforced RWND < VM CWND on %.1f%% of ACKs (%lld/%lld)\n",
              100.0 * static_cast<double>(limiting) /
                  static_cast<double>(total ? total : 1),
              static_cast<long long>(limiting),
              static_cast<long long>(total));
  std::printf("Paper: after start-up, AC/DC's RWND is always the limiting "
              "window (CUBIC's CWND floats far above).\n");
  return 0;
}
