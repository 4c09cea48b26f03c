// Host-layer tests: connection demux, listeners, datapath filter ordering,
// TSQ back-pressure, detaching the trace, and the applications (bulk,
// message, echo) on a small star topology.
#include <gtest/gtest.h>

#include <memory>

#include "exp/mode.h"
#include "exp/star.h"
#include "host/bulk_app.h"
#include "host/echo_app.h"
#include "host/host.h"
#include "host/message_app.h"
#include "net/datapath.h"
#include "obs/flight_recorder.h"
#include "stats/fct_collector.h"
#include "workload/churn.h"

namespace acdc {
namespace {

using host::Host;
using host::HostConfig;

// Tags packets with the order in which filters saw them.
class TagFilter : public net::DuplexFilter {
 public:
  explicit TagFilter(std::vector<int>* egress_log, std::vector<int>* ingress_log,
                     int id)
      : egress_log_(egress_log), ingress_log_(ingress_log), id_(id) {}

 protected:
  void handle_egress(net::PacketPtr p) override {
    egress_log_->push_back(id_);
    send_down(std::move(p));
  }
  void handle_ingress(net::PacketPtr p) override {
    ingress_log_->push_back(id_);
    send_up(std::move(p));
  }

 private:
  std::vector<int>* egress_log_;
  std::vector<int>* ingress_log_;
  int id_;
};

TEST(HostTest, FilterOrdering) {
  sim::Simulator sim;
  HostConfig hc;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), hc);
  Host b(&sim, "B", net::make_ip(10, 0, 0, 2), hc);
  std::vector<int> egress;
  std::vector<int> ingress;
  TagFilter f1(&egress, &ingress, 1);
  TagFilter f2(&egress, &ingress, 2);
  a.add_filter(&f1);
  a.add_filter(&f2);
  a.nic().tx_port().set_peer(&b.nic());
  b.nic().tx_port().set_peer(&a.nic());

  b.listen(80, tcp::TcpConfig{});
  a.connect(b.ip(), 80, tcp::TcpConfig{});
  sim.run_until(sim::milliseconds(10));

  // Egress: stack -> f1 -> f2 -> NIC. Ingress: NIC -> f2 -> f1 -> stack.
  ASSERT_GE(egress.size(), 2u);
  EXPECT_EQ(egress[0], 1);
  EXPECT_EQ(egress[1], 2);
  ASSERT_GE(ingress.size(), 2u);
  EXPECT_EQ(ingress[0], 2);
  EXPECT_EQ(ingress[1], 1);
}

// set_trace(nullptr) turns every tap the host handed out off, its
// connections' included, so the old recorder may be freed under live
// connections: nothing records into it, and ASan sees no use after free.
TEST(HostTest, DetachedTraceLeavesNoTapOnTheOldRecorder) {
  sim::Simulator sim;
  HostConfig hc;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), hc);
  Host b(&sim, "B", net::make_ip(10, 0, 0, 2), hc);
  a.nic().tx_port().set_peer(&b.nic());
  b.nic().tx_port().set_peer(&a.nic());
  auto recorder = std::make_unique<obs::FlightRecorder>(1 << 12);
  recorder->set_enabled(true);
  a.set_trace(recorder.get());
  b.set_trace(recorder.get());

  b.listen(80, tcp::TcpConfig{});
  tcp::TcpConnection* conn = a.connect(b.ip(), 80, tcp::TcpConfig{});
  sim.run_until(sim::milliseconds(1));
  ASSERT_EQ(conn->state(), tcp::TcpConnection::State::kEstablished);
  ASSERT_GT(recorder->recorded_events(), 0u);

  a.set_trace(nullptr);
  b.set_trace(nullptr);
  const std::uint64_t recorded = recorder->recorded_events();
  conn->send(100'000);
  sim.run_until(sim::milliseconds(2));
  EXPECT_EQ(recorder->recorded_events(), recorded);
  EXPECT_GT(conn->acked_payload_bytes(), 0);

  recorder.reset();
  conn->send(100'000);
  sim.run_until(sim::milliseconds(4));
  EXPECT_EQ(conn->acked_payload_bytes(), 200'000);
}

// Host preconditions hold in every build, NDEBUG included: an open
// connection is already wired to the old filter chain and simulator.
TEST(HostDeathTest, FiltersPrecedeConnections) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), HostConfig{});
  a.connect(net::make_ip(10, 0, 0, 2), 80, tcp::TcpConfig{});
  net::DuplexFilter late;
  EXPECT_DEATH(a.add_filter(&late),
               "host A: install filters before opening connections \\(1 open");
}

TEST(HostDeathTest, RebindPrecedesConnections) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  sim::Simulator shard;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), HostConfig{});
  a.connect(net::make_ip(10, 0, 0, 2), 80, tcp::TcpConfig{});
  EXPECT_DEATH(a.rebind_simulator(&shard),
               "host A: partition the scenario before opening connections");
}

// Under NDEBUG the exhausted allocator used to hand out port 0.
TEST(HostDeathTest, EphemeralPortExhaustionDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        Host a(&sim, "A", net::make_ip(10, 0, 0, 1), HostConfig{});
        // Ports 40000-65535 toward one remote; the next connect has none.
        for (int i = 0; i <= 65'536 - 40'000; ++i) {
          a.connect(net::make_ip(10, 0, 0, 2), 80, tcp::TcpConfig{});
        }
      },
      "host A: ephemeral ports toward 10.0.0.2:80 are exhausted "
      "\\(25536 in use\\)");
}

// The TSQ limit has no off mode: a zero limit would stall every sender.
TEST(HostDeathTest, NonPositiveTsqLimitDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  HostConfig hc;
  hc.tsq_limit_bytes = 0;
  EXPECT_DEATH(Host(&sim, "A", net::make_ip(10, 0, 0, 1), hc),
               "host A: tsq_limit_bytes must be positive \\(0\\)");
}

// A zero rate used to reach seconds(1.0 / 0.0), an infinite double
// converted to an integer, under NDEBUG.
TEST(ChurnSourceDeathTest, ZeroArrivalRateDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), HostConfig{});
  Host b(&sim, "B", net::make_ip(10, 0, 0, 2), HostConfig{});
  workload::ChurnConfig config;
  config.flows_per_sec = 0.0;
  EXPECT_DEATH(workload::ChurnSource(&a, &b, 80, tcp::TcpConfig{}, config,
                                     sim::Rng(1), 0),
               "churn: the arrival rate must be positive "
               "\\(flows_per_sec=0, burst_factor=4\\)");
}

TEST(HostTest, DemuxAcrossManyConnections) {
  sim::Simulator sim;
  HostConfig hc;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), hc);
  Host b(&sim, "B", net::make_ip(10, 0, 0, 2), hc);
  a.nic().tx_port().set_peer(&b.nic());
  b.nic().tx_port().set_peer(&a.nic());
  b.listen(80, tcp::TcpConfig{});
  b.listen(81, tcp::TcpConfig{});

  std::vector<tcp::TcpConnection*> conns;
  for (int i = 0; i < 10; ++i) {
    auto* c = a.connect(b.ip(), i % 2 == 0 ? 80 : 81, tcp::TcpConfig{});
    c->on_established = [c, i] { c->send(100 * (i + 1)); };
    conns.push_back(c);
  }
  sim.run_until(sim::milliseconds(50));
  ASSERT_EQ(b.connections().size(), 10u);
  std::int64_t total = 0;
  for (const auto& c : b.connections()) total += c->delivered_bytes();
  EXPECT_EQ(total, 100 * 55);  // sum 100..1000
  EXPECT_EQ(b.demux_misses(), 0);
  for (auto* c : conns) {
    EXPECT_EQ(c->state(), tcp::TcpConnection::State::kEstablished);
  }
}

TEST(HostTest, SynToClosedPortIsDropped) {
  sim::Simulator sim;
  HostConfig hc;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), hc);
  Host b(&sim, "B", net::make_ip(10, 0, 0, 2), hc);
  a.nic().tx_port().set_peer(&b.nic());
  b.nic().tx_port().set_peer(&a.nic());
  auto* c = a.connect(b.ip(), 9999, tcp::TcpConfig{});
  sim.run_until(sim::milliseconds(50));
  EXPECT_EQ(c->state(), tcp::TcpConnection::State::kSynSent);
  EXPECT_GT(b.demux_misses(), 0);
}

TEST(HostTest, TsqBoundsNicQueue) {
  sim::Simulator sim;
  HostConfig hc;
  hc.nic_queue_bytes = 4 * 1024 * 1024;
  hc.tsq_limit_bytes = 64 * 1024;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), hc);
  Host b(&sim, "B", net::make_ip(10, 0, 0, 2), hc);
  a.nic().tx_port().set_peer(&b.nic());
  b.nic().tx_port().set_peer(&a.nic());
  b.listen(80, tcp::TcpConfig{});
  auto* c = a.connect(b.ip(), 80, tcp::TcpConfig{});
  c->on_established = [c] { c->send(50'000'000); };
  std::int64_t max_queue = 0;
  for (int i = 0; i < 400; ++i) {
    sim.run_until(sim.now() + sim::microseconds(100));
    max_queue = std::max(max_queue, a.nic().tx_port().queue().byte_length());
  }
  // Back-pressure holds the TX queue near the TSQ limit (a handful of
  // segments of slop: the gate is checked per segment, not per byte).
  EXPECT_LE(max_queue, 64 * 1024 + 8 * 1448 + 100);
  EXPECT_GT(max_queue, 32 * 1024) << "the queue should actually be used";
  // And the transfer still runs at line rate.
  sim.run_until(sim::milliseconds(60));
  EXPECT_GT(b.connections()[0]->delivered_bytes(), 40'000'000);
}

TEST(AppTest, BulkAppMeasuresCompletion) {
  exp::StarConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  cfg.hosts = 2;
  exp::Star star(cfg);
  exp::Scenario& s = star.scenario();
  auto* app = s.add_bulk_flow(star.host(0), star.host(1),
                              s.tcp_config(tcp::CcId::kDctcp), sim::milliseconds(5),
                              10'000'000);
  s.run_until(sim::milliseconds(200));
  EXPECT_TRUE(app->completed());
  EXPECT_GT(app->completion_time(), sim::milliseconds(5));
  EXPECT_EQ(app->delivered_bytes(), 10'000'000);
  // Goodput over the active window ~ line rate.
  EXPECT_GT(app->goodput_bps(0, app->completion_time()), 5e9);
}

TEST(AppTest, BulkAppUnlimitedStops) {
  exp::StarConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  cfg.hosts = 2;
  exp::Star star(cfg);
  exp::Scenario& s = star.scenario();
  auto* app = s.add_bulk_flow(star.host(0), star.host(1),
                              s.tcp_config(tcp::CcId::kDctcp), 0);
  app->stop_at(sim::milliseconds(50));
  s.run_until(sim::milliseconds(200));
  const std::int64_t at_stop = app->delivered_bytes();
  EXPECT_GT(at_stop, 10'000'000);
  // After the stop the pipeline drains and the flow idles.
  EXPECT_LT(app->goodput_bps(sim::milliseconds(100), sim::milliseconds(200)),
            1e9);
}

TEST(AppTest, MessageAppRecordsFcts) {
  exp::StarConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  cfg.hosts = 2;
  exp::Star star(cfg);
  exp::Scenario& s = star.scenario();
  stats::FctCollector fct(10'000);
  auto* app = s.add_message_app(star.host(0), star.host(1),
                                s.tcp_config(tcp::CcId::kDctcp), 0,
                                sim::milliseconds(10), 5'000, &fct);
  s.run_until(sim::milliseconds(205));
  EXPECT_GE(app->messages_sent(), 19);
  EXPECT_EQ(app->messages_completed(), app->messages_sent());
  EXPECT_EQ(fct.mice_ms().count(),
            static_cast<std::size_t>(app->messages_completed()));
  // On an idle 10G path a 5KB message completes in tens of microseconds.
  EXPECT_LT(fct.mice_ms().median(), 0.2);
}

// App API preconditions hold in every build, NDEBUG included. Under NDEBUG
// a message sent before the handshake or of zero bytes went out silently,
// and an empty goodput window divided by zero.
TEST(AppDeathTest, MessageAppSendPreconditions) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), HostConfig{});
  Host b(&sim, "B", net::make_ip(10, 0, 0, 2), HostConfig{});
  a.nic().tx_port().set_peer(&b.nic());
  b.nic().tx_port().set_peer(&a.nic());
  host::MessageApp app(&a, &b, 80, tcp::TcpConfig{}, tcp::TcpConfig{},
                       /*start_time=*/0, /*interval=*/0, 1'000, nullptr);
  sim.run_until(sim::microseconds(1));  // SYN sent, not yet answered
  ASSERT_NE(app.connection(), nullptr);
  EXPECT_DEATH(app.send_message(1'000),
               "message app on port 80: send_message before the connection "
               "is established");
  sim.run_until(sim::milliseconds(1));
  ASSERT_TRUE(app.established());
  EXPECT_DEATH(app.send_message(0),
               "message app on port 80: bytes must be positive \\(bytes=0\\)");
}

TEST(AppDeathTest, BulkAppGoodputNeedsAWindow) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  Host a(&sim, "A", net::make_ip(10, 0, 0, 1), HostConfig{});
  Host b(&sim, "B", net::make_ip(10, 0, 0, 2), HostConfig{});
  host::BulkApp app(&a, &b, 80, tcp::TcpConfig{}, tcp::TcpConfig{},
                    /*start_time=*/0);
  EXPECT_DEATH(app.goodput_bps(sim::milliseconds(5), sim::milliseconds(5)),
               "bulk app on port 80: goodput window must be non-empty "
               "\\(from=5000000, to=5000000\\)");
}

TEST(AppTest, EchoAppMeasuresRtt) {
  exp::StarConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kDctcp);
  cfg.hosts = 2;
  exp::Star star(cfg);
  exp::Scenario& s = star.scenario();
  auto* probe = s.add_rtt_probe(star.host(0), star.host(1),
                                s.tcp_config(tcp::CcId::kDctcp), 0,
                                sim::milliseconds(1));
  s.run_until(sim::milliseconds(100));
  EXPECT_GT(probe->rtt_ms().count(), 50u);
  // Idle path: RTT ~ 4 hops of 2us + serialisation, well under 100us.
  EXPECT_LT(probe->rtt_ms().median(), 0.1);
  EXPECT_GT(probe->rtt_ms().median(), 0.005);
}

}  // namespace
}  // namespace acdc
