// End-to-end integration tests asserting the paper's qualitative claims on
// real topologies (scaled-down durations):
//  - AC/DC ≈ DCTCP on throughput, fairness and RTT; CUBIC fills buffers.
//  - AC/DC's computed RWND tracks a host DCTCP stack's CWND (Fig. 9).
//  - Heterogeneous tenant stacks become fair under AC/DC (Figs. 1/17).
//  - ECN/non-ECN coexistence is fixed by AC/DC (Figs. 15/16).
//  - QoS priorities via Eq. 1's beta (Fig. 13).
#include <gtest/gtest.h>

#include <cmath>

#include "exp/dumbbell.h"
#include "exp/mode.h"
#include "exp/parking_lot.h"
#include "exp/star.h"
#include "stats/percentile.h"

namespace acdc {
namespace {

using exp::Dumbbell;
using exp::DumbbellConfig;
using exp::Mode;

struct DumbbellRun {
  std::vector<double> goodputs_gbps;
  double jain = 0.0;
  double rtt_p50_ms = 0.0;
  double rtt_p99_ms = 0.0;
  double drop_rate = 0.0;
};

DumbbellRun run_dumbbell(Mode mode, tcp::CcId host_cc = tcp::CcId::kCubic,
                         sim::Time duration = sim::seconds(1.5)) {
  DumbbellConfig cfg;
  cfg.scenario = exp::scenario_config_for(mode);
  Dumbbell bell(cfg);
  exp::Scenario& s = bell.scenario();
  std::vector<host::Host*> hosts;
  for (int i = 0; i < bell.pairs(); ++i) {
    hosts.push_back(bell.sender(i));
    hosts.push_back(bell.receiver(i));
  }
  exp::apply_mode(s, hosts, mode);

  const tcp::TcpConfig tcp = exp::host_tcp_config(s, mode, host_cc);
  std::vector<host::BulkApp*> apps;
  for (int i = 0; i < bell.pairs(); ++i) {
    apps.push_back(
        s.add_bulk_flow(bell.sender(i), bell.receiver(i), tcp, 0));
  }
  auto* probe = s.add_rtt_probe(bell.sender(0), bell.receiver(0), tcp,
                                sim::milliseconds(50), sim::milliseconds(1));
  s.run_until(duration);

  DumbbellRun out;
  const sim::Time measure_from = sim::milliseconds(300);
  for (auto* app : apps) {
    out.goodputs_gbps.push_back(app->goodput_bps(measure_from, duration) /
                                1e9);
  }
  out.jain = stats::jain_fairness_index(out.goodputs_gbps);
  out.rtt_p50_ms = probe->rtt_ms().median();
  out.rtt_p99_ms = probe->rtt_ms().percentile(99);
  out.drop_rate = s.fabric_stats().drop_rate();
  return out;
}

TEST(DumbbellIntegrationTest, AllModesSaturateAndShareFairly) {
  for (Mode mode : {Mode::kCubic, Mode::kDctcp, Mode::kAcdc}) {
    const DumbbellRun r = run_dumbbell(mode);
    double total = 0;
    for (double g : r.goodputs_gbps) total += g;
    EXPECT_GT(total, 8.0) << exp::to_string(mode)
                          << ": bottleneck should be saturated";
    // CUBIC converges slowly (the paper reports 0.85 fairness at 1.5K MTU
    // even over 20s runs); DCTCP and AC/DC converge fast.
    EXPECT_GT(r.jain, mode == Mode::kCubic ? 0.6 : 0.9)
        << exp::to_string(mode);
  }
}

TEST(DumbbellIntegrationTest, AcdcMatchesDctcpRttAndBeatsCubic) {
  const DumbbellRun cubic = run_dumbbell(Mode::kCubic);
  const DumbbellRun dctcp = run_dumbbell(Mode::kDctcp);
  const DumbbellRun acdc = run_dumbbell(Mode::kAcdc);
  // CUBIC fills the 9MB shared buffer: RTT in the milliseconds.
  EXPECT_GT(cubic.rtt_p50_ms, 1.0);
  // DCTCP and AC/DC keep queues near K: sub-millisecond RTT.
  EXPECT_LT(dctcp.rtt_p50_ms, 1.0);
  EXPECT_LT(acdc.rtt_p50_ms, 1.0);
  // AC/DC within ~2x of DCTCP (paper: 124us vs 136us).
  EXPECT_LT(acdc.rtt_p50_ms, 2.0 * dctcp.rtt_p50_ms + 0.1);
  // And an order of magnitude below CUBIC.
  EXPECT_LT(acdc.rtt_p50_ms * 4, cubic.rtt_p50_ms);
}

TEST(DumbbellIntegrationTest, AcdcWorksWithEveryHostStack) {
  // Table 1's point: any tenant stack under AC/DC behaves like DCTCP.
  for (tcp::CcId cc : {tcp::CcId::kReno, tcp::CcId::kVegas,
                       tcp::CcId::kIllinois, tcp::CcId::kHighspeed}) {
    const DumbbellRun r = run_dumbbell(Mode::kAcdc, cc, sim::seconds(1));
    double total = 0;
    for (double g : r.goodputs_gbps) total += g;
    EXPECT_GT(total, 7.5) << tcp::to_string(cc);
    EXPECT_GT(r.jain, 0.9) << tcp::to_string(cc);
    EXPECT_LT(r.rtt_p50_ms, 1.0) << cc;
  }
}

TEST(WindowTrackingIntegrationTest, AcdcRwndTracksDctcpCwnd) {
  // Fig. 9: host stack = DCTCP, AC/DC in observer mode logging its
  // computed window; both should stay close.
  DumbbellConfig cfg;
  cfg.scenario = exp::scenario_config_for(Mode::kDctcp, 1500);
  Dumbbell bell(cfg);
  exp::Scenario& s = bell.scenario();

  const vswitch::AcdcConfig observer{.enforce = false};
  std::vector<host::Host*> hosts;
  for (int i = 0; i < bell.pairs(); ++i) {
    hosts.push_back(bell.sender(i));    // sender modules (even indices)
    hosts.push_back(bell.receiver(i));  // receiver modules: PACK feedback
  }
  auto vswitches = exp::apply_mode(s, hosts, Mode::kAcdc, observer);

  // Collect (computed rwnd, host cwnd) sample pairs for sender 0's flow.
  stats::Sampler ratio;
  tcp::TcpConnection* conn0 = nullptr;
  obs::FlightRecorder window_log(1);  // the listener sees every event
  vswitches[0]->attach_observability({.recorder = &window_log});
  window_log.add_listener([&](const obs::TraceEvent& ev) {
    if (ev.type != obs::EventType::kWindowEnforced || conn0 == nullptr ||
        ev.t < sim::milliseconds(300)) {
      return;
    }
    const double cwnd = static_cast<double>(conn0->cwnd_bytes());
    if (cwnd > 0) ratio.add(static_cast<double>(ev.a) / cwnd);
  });

  const tcp::TcpConfig tcp = exp::host_tcp_config(s, Mode::kDctcp);
  std::vector<host::BulkApp*> apps;
  for (int i = 0; i < bell.pairs(); ++i) {
    apps.push_back(s.add_bulk_flow(bell.sender(i), bell.receiver(i), tcp, 0));
  }
  s.run_until(sim::milliseconds(100));
  conn0 = apps[0]->sender_connection();
  s.run_until(sim::seconds(1));

  ASSERT_GT(ratio.count(), 100u);
  // Median computed-window / host-cwnd ratio close to 1 (Fig. 9b).
  EXPECT_GT(ratio.median(), 0.4);
  EXPECT_LT(ratio.median(), 1.6);
}

TEST(HeterogeneousStacksIntegrationTest, AcdcRestoresFairness) {
  // Figs. 1 and 17: five different stacks on the dumbbell.
  const std::vector<tcp::CcId> stacks = {
      tcp::CcId::kCubic, tcp::CcId::kIllinois, tcp::CcId::kHighspeed,
      tcp::CcId::kReno, tcp::CcId::kVegas};
  auto run = [&](Mode mode) {
    DumbbellConfig cfg;
    cfg.scenario = exp::scenario_config_for(mode);
    Dumbbell bell(cfg);
    exp::Scenario& s = bell.scenario();
    std::vector<host::Host*> hosts;
    for (int i = 0; i < bell.pairs(); ++i) {
      hosts.push_back(bell.sender(i));
      hosts.push_back(bell.receiver(i));
    }
    exp::apply_mode(s, hosts, mode);
    std::vector<host::BulkApp*> apps;
    for (int i = 0; i < bell.pairs(); ++i) {
      tcp::TcpConfig t = s.tcp_config(stacks[static_cast<std::size_t>(i)]);
      apps.push_back(s.add_bulk_flow(bell.sender(i), bell.receiver(i), t, 0));
    }
    s.run_until(sim::seconds(1.5));
    std::vector<double> goodputs;
    for (auto* a : apps) {
      goodputs.push_back(
          a->goodput_bps(sim::milliseconds(300), sim::seconds(1.5)));
    }
    return stats::jain_fairness_index(goodputs);
  };
  const double without = run(Mode::kCubic);  // heterogeneous, no AC/DC
  const double with = run(Mode::kAcdc);
  EXPECT_GT(with, 0.9);
  EXPECT_GT(with, without);
}

TEST(EcnCoexistenceIntegrationTest, AcdcFixesStarvation) {
  // Figs. 15/16: one non-ECN CUBIC flow + one DCTCP flow on a marking
  // bottleneck. Without AC/DC the CUBIC flow is starved (its packets are
  // dropped at the threshold); with AC/DC both get a fair share.
  auto run = [&](bool with_acdc) {
    DumbbellConfig cfg;
    cfg.scenario = exp::scenario_config_for(Mode::kDctcp);  // RED on
    cfg.pairs = 2;
    Dumbbell bell(cfg);
    exp::Scenario& s = bell.scenario();
    if (with_acdc) {
      std::vector<host::Host*> hosts;
      for (int i = 0; i < 2; ++i) {
        hosts.push_back(bell.sender(i));
        hosts.push_back(bell.receiver(i));
      }
      exp::apply_mode(s, hosts, Mode::kAcdc);
    }
    auto* cubic_flow = s.add_bulk_flow(bell.sender(0), bell.receiver(0),
                                       s.tcp_config(tcp::CcId::kCubic), 0);
    auto* dctcp_flow = s.add_bulk_flow(bell.sender(1), bell.receiver(1),
                                       s.tcp_config(tcp::CcId::kDctcp), 0);
    s.run_until(sim::seconds(1.5));
    const double cubic_g =
        cubic_flow->goodput_bps(sim::milliseconds(300), sim::seconds(1.5));
    const double dctcp_g =
        dctcp_flow->goodput_bps(sim::milliseconds(300), sim::seconds(1.5));
    return std::pair<double, double>{cubic_g / 1e9, dctcp_g / 1e9};
  };

  const auto [cubic_without, dctcp_without] = run(false);
  EXPECT_LT(cubic_without * 3, dctcp_without)
      << "non-ECN flow must be starved on an ECN-marking bottleneck";

  const auto [cubic_with, dctcp_with] = run(true);
  const double ratio = cubic_with / dctcp_with;
  EXPECT_GT(ratio, 0.6) << "AC/DC must restore a fair share";
  EXPECT_LT(ratio, 1.67);
}

TEST(QosIntegrationTest, BetaPrioritiesOrderThroughput) {
  // Fig. 13: flows with higher beta get more bandwidth.
  DumbbellConfig cfg;
  cfg.scenario = exp::scenario_config_for(Mode::kAcdc);
  cfg.pairs = 3;
  Dumbbell bell(cfg);
  exp::Scenario& s = bell.scenario();
  const double betas[3] = {1.0, 0.5, 0.25};
  std::vector<host::BulkApp*> apps;
  for (int i = 0; i < 3; ++i) {
    vswitch::AcdcConfig acdc;
    auto* vs = s.attach_acdc(bell.sender(i), acdc);
    auto* vr = s.attach_acdc(bell.receiver(i), acdc);
    (void)vr;
    vswitch::FlowPolicy p;
    p.beta = betas[i];
    vs->policy().set_default(p);
    apps.push_back(s.add_bulk_flow(bell.sender(i), bell.receiver(i),
                                   s.tcp_config(tcp::CcId::kCubic), 0));
  }
  s.run_until(sim::seconds(1.5));
  std::vector<double> g;
  for (auto* a : apps) {
    g.push_back(a->goodput_bps(sim::milliseconds(300), sim::seconds(1.5)));
  }
  EXPECT_GT(g[0], g[1]);
  EXPECT_GT(g[1], g[2]);
}

TEST(ParkingLotIntegrationTest, AcdcFairAcrossBottlenecks) {
  // Fig. 7b pattern: four senders entering the chain at different hops all
  // terminate at one receiver (flows cross 3/3/2/1 bottleneck trunks).
  exp::ParkingLotConfig cfg;
  cfg.scenario = exp::scenario_config_for(Mode::kAcdc);
  cfg.segments = 3;
  exp::ParkingLot lot(cfg);
  exp::Scenario& s = lot.scenario();
  std::vector<host::Host*> hosts{lot.long_sender(), lot.long_receiver()};
  for (int i = 0; i < lot.segments(); ++i) {
    hosts.push_back(lot.cross_sender(i));
  }
  exp::apply_mode(s, hosts, Mode::kAcdc);
  const tcp::TcpConfig tcp = exp::host_tcp_config(s, Mode::kAcdc);
  std::vector<host::BulkApp*> apps;
  apps.push_back(s.add_bulk_flow(lot.long_sender(), lot.long_receiver(), tcp, 0));
  for (int i = 0; i < lot.segments(); ++i) {
    apps.push_back(
        s.add_bulk_flow(lot.cross_sender(i), lot.long_receiver(), tcp, 0));
  }
  s.run_until(sim::seconds(1.5));
  std::vector<double> g;
  for (auto* a : apps) {
    g.push_back(a->goodput_bps(sim::milliseconds(300), sim::seconds(1.5)));
  }
  // All four flows share the receiver's link; the paper reports 2.45 Gbps
  // average with fairness 0.99 for DCTCP/AC-DC.
  EXPECT_GT(stats::jain_fairness_index(g), 0.9);
  double total = 0;
  for (double x : g) total += x;
  EXPECT_GT(total / 1e9, 8.5);
}

TEST(IncastIntegrationTest, AcdcKeepsZeroDropsAndFairness) {
  // Fig. 18/19 smoke test at 16-to-1.
  exp::StarConfig cfg;
  cfg.scenario = exp::scenario_config_for(Mode::kAcdc);
  cfg.hosts = 17;
  exp::Star star(cfg);
  exp::Scenario& s = star.scenario();
  std::vector<host::Host*> hosts;
  for (int i = 0; i < star.host_count(); ++i) hosts.push_back(star.host(i));
  exp::apply_mode(s, hosts, Mode::kAcdc);
  const tcp::TcpConfig tcp = exp::host_tcp_config(s, Mode::kAcdc);
  std::vector<host::BulkApp*> apps;
  for (int i = 1; i <= 16; ++i) {
    apps.push_back(s.add_bulk_flow(star.host(i), star.host(0), tcp, 0));
  }
  s.run_until(sim::seconds(1));
  std::vector<double> g;
  for (auto* a : apps) {
    g.push_back(a->goodput_bps(sim::milliseconds(200), sim::seconds(1)));
  }
  EXPECT_GT(stats::jain_fairness_index(g), 0.95);
  EXPECT_EQ(s.fabric_stats().dropped_packets, 0);
  double total = 0;
  for (double x : g) total += x;
  EXPECT_GT(total / 1e9, 8.0);
}

}  // namespace
}  // namespace acdc
