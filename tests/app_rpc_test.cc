// RPC layer unit tests (src/app/rpc.h): out-of-band frame reassembly
// across partial deliveries, request/response id matching over a real
// TcpConnection, worker-pool backlog limits, late-response accounting, a
// Respond that answers once across repeat calls and copies, a close()
// that waits out its calls' deadlines, a hand-computed
// 1-client/1-server latency check (2 x RTT + service time — the request
// rides the connection handshake, so the client-observed latency is the
// handshake RTT plus the request/response RTT plus the modeled service),
// and the app tier's construction and call preconditions.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "app/fanout.h"
#include "app/rpc.h"
#include "app/service.h"
#include "app/users.h"
#include "host/host.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "testlib/seed.h"

namespace acdc::app {
namespace {

// A request frame of `bytes` with every other field at its default.
RpcFrame frame_of(std::uint64_t id, std::int64_t bytes) {
  RpcFrame f;
  f.id = id;
  f.bytes = bytes;
  return f;
}

TEST(FrameStream, CompletesFramesOnlyAtByteBoundaries) {
  FrameStream s;
  s.push(frame_of(1, 100));
  s.push(frame_of(2, 50));
  s.push(frame_of(3, 200));

  // Partial delivery of the first frame completes nothing.
  EXPECT_TRUE(s.drain(99).empty());
  // Crossing the first boundary completes exactly frame 1.
  std::vector<RpcFrame> got = s.drain(100);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 1u);
  // A jump across two boundaries completes both, in stream order.
  got = s.drain(350);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 2u);
  EXPECT_EQ(got[1].id, 3u);
  // Cumulative counts never rewind; an equal re-poll yields nothing.
  EXPECT_TRUE(s.drain(350).empty());
}

TEST(FrameStream, DrainIsCumulativeAcrossManySmallDeliveries) {
  FrameStream s;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    s.push(frame_of(id, 64));
  }
  // Deliver one byte at a time; each frame must complete exactly once, at
  // exactly its boundary.
  std::vector<std::uint64_t> completed;
  for (std::int64_t delivered = 1; delivered <= 8 * 64; ++delivered) {
    for (const RpcFrame& f : s.drain(delivered)) {
      completed.push_back(f.id);
      EXPECT_EQ(delivered % 64, 0) << "frame completed off-boundary";
    }
  }
  ASSERT_EQ(completed.size(), 8u);
  EXPECT_TRUE(std::is_sorted(completed.begin(), completed.end()));
}

TEST(ConduitRegistry, SharedUntilBothEndsDetach) {
  ConduitRegistry reg;
  const tcp::Endpoint client{net::make_ip(10, 0, 0, 1), 40000};
  const tcp::Endpoint server{net::make_ip(10, 0, 0, 2), 7000};
  FrameConduit* a = reg.create(client, server);
  FrameConduit* b = reg.create(client, server);
  EXPECT_EQ(a, b) << "both ends must share one conduit";
  EXPECT_EQ(reg.size(), 1u);
  reg.detach(client, server);
  EXPECT_EQ(reg.size(), 1u) << "entry must survive the first detach";
  reg.detach(client, server);
  EXPECT_EQ(reg.size(), 0u);
}

// Two hosts wired NIC-to-NIC; the fixture owns the registry and a server.
struct RpcPair {
  static constexpr sim::Time kLinkDelay = sim::microseconds(50);

  sim::Simulator sim;
  host::HostConfig hc;
  host::Host client_host;
  host::Host server_host;
  ConduitRegistry registry;

  explicit RpcPair()
      : hc(make_host_config()),
        client_host(&sim, "C", net::make_ip(10, 0, 0, 1), hc),
        server_host(&sim, "S", net::make_ip(10, 0, 0, 2), hc) {
    client_host.nic().tx_port().set_peer(&server_host.nic());
    server_host.nic().tx_port().set_peer(&client_host.nic());
  }

  static host::HostConfig make_host_config() {
    host::HostConfig hc;
    hc.link_delay = kLinkDelay;  // dominates serialization at 10G
    return hc;
  }
};

TEST(RpcTest, ResponsesMatchRequestIdsAcrossConcurrentCalls) {
  RpcPair net;
  RpcServerConfig scfg;
  scfg.service_time = sim::microseconds(10);
  RpcServer server(&net.server_host, &net.registry, tcp::TcpConfig{}, scfg,
                   sim::Rng(testlib::test_seed(101)));
  RpcClient client(&net.client_host, &net.registry, net.server_host.ip(),
                   scfg.port, tcp::TcpConfig{});

  std::vector<std::uint64_t> issued;
  std::vector<std::uint64_t> answered;
  for (int i = 0; i < 16; ++i) {
    issued.push_back(client.call(
        /*request_bytes=*/100 + 37 * i, /*deadline=*/sim::milliseconds(100),
        [&answered](const RpcResult& r) {
          EXPECT_TRUE(r.ok);
          EXPECT_FALSE(r.timed_out);
          answered.push_back(r.id);
        }));
  }
  net.sim.run_until(sim::milliseconds(50));

  // Every call terminated with its own id, and ids were answered in issue
  // order (one FIFO connection, one worker pool, no reordering).
  EXPECT_EQ(answered, issued);
  EXPECT_EQ(client.stats().issued, 16);
  EXPECT_EQ(client.stats().completed, 16);
  EXPECT_EQ(client.stats().timed_out, 0);
  EXPECT_EQ(server.stats().requests, 16);
  EXPECT_EQ(server.stats().responses, 16);
  EXPECT_EQ(client.outstanding(), 0);
  EXPECT_EQ(server.in_flight(), 0);
}

TEST(RpcTest, BacklogOverflowDropsAndClientDeadlineSurfacesIt) {
  RpcPair net;
  RpcServerConfig scfg;
  scfg.workers = 1;
  scfg.backlog_limit = 2;
  scfg.service_time = sim::milliseconds(1);  // all 5 arrive before any finish
  RpcServer server(&net.server_host, &net.registry, tcp::TcpConfig{}, scfg,
                   sim::Rng(testlib::test_seed(102)));
  RpcClient client(&net.client_host, &net.registry, net.server_host.ip(),
                   scfg.port, tcp::TcpConfig{});

  int completed = 0;
  int timed_out = 0;
  for (int i = 0; i < 5; ++i) {
    client.call(128, sim::milliseconds(20), [&](const RpcResult& r) {
      (r.timed_out ? timed_out : completed)++;
    });
  }
  net.sim.run_until(sim::milliseconds(100));

  // 1 in service + 2 queued = 3 served; the other 2 dropped on the floor,
  // surfaced only by the client's deadline timers.
  EXPECT_EQ(server.stats().requests, 5);
  EXPECT_EQ(server.stats().rejected, 2);
  EXPECT_EQ(server.stats().responses, 3);
  EXPECT_EQ(server.stats().busy_peak, 1);
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(timed_out, 2);
  EXPECT_EQ(client.stats().timed_out, 2);
  // A dropped request never gets a response, so nothing arrives late.
  EXPECT_EQ(client.stats().late, 0);
  EXPECT_EQ(server.in_flight(), 0);
}

TEST(RpcTest, ResponseAfterItsDeadlineCountsLateOnce) {
  RpcPair net;
  RpcServerConfig scfg;
  scfg.service_time = sim::milliseconds(5);  // well past the 2 ms deadline
  RpcServer server(&net.server_host, &net.registry, tcp::TcpConfig{}, scfg,
                   sim::Rng(testlib::test_seed(105)));
  RpcClient client(&net.client_host, &net.registry, net.server_host.ip(),
                   scfg.port, tcp::TcpConfig{});

  int results = 0;
  client.call(128, sim::milliseconds(2), [&results](const RpcResult& r) {
    EXPECT_TRUE(r.timed_out);
    ++results;
  });
  net.sim.run_until(sim::milliseconds(50));

  EXPECT_EQ(results, 1) << "the caller hears of the miss once";
  EXPECT_EQ(server.stats().responses, 1);
  EXPECT_EQ(client.stats().timed_out, 1);
  EXPECT_EQ(client.stats().completed, 0);
  EXPECT_EQ(client.stats().late, 1);
  EXPECT_EQ(client.outstanding(), 0);
}

TEST(RpcTest, HandComputedLatencyIsTwoRttPlusServiceTime) {
  RpcPair net;
  RpcServerConfig scfg;
  scfg.service_time = sim::milliseconds(1);
  scfg.service_jitter_mean = 0;
  scfg.response_bytes = 2000;
  scfg.response_jitter_bytes = 0;
  RpcServer server(&net.server_host, &net.registry, tcp::TcpConfig{}, scfg,
                   sim::Rng(testlib::test_seed(103)));
  RpcClient client(&net.client_host, &net.registry, net.server_host.ip(),
                   scfg.port, tcp::TcpConfig{});

  // Issued before the handshake: SYN (0.5 RTT) -> SYN-ACK (1 RTT) ->
  // request (1.5 RTT) -> 1ms service -> response (2 RTT + service). With
  // 50us one-way propagation, 2 x RTT = 200us of propagation plus a few
  // microseconds of 10G serialization for ~2.3KB of packets.
  sim::Time latency = 0;
  client.call(256, sim::milliseconds(20), [&latency](const RpcResult& r) {
    EXPECT_TRUE(r.ok);
    latency = r.latency;
    EXPECT_EQ(r.server_cost.service_ns, sim::milliseconds(1));
    EXPECT_EQ(r.server_cost.queue_ns, 0);
    EXPECT_EQ(r.server_cost.downstream_ns, 0);
  });
  net.sim.run_until(sim::milliseconds(20));

  const sim::Time floor = scfg.service_time + 4 * RpcPair::kLinkDelay;
  ASSERT_GT(latency, 0);
  EXPECT_GE(latency, floor);
  EXPECT_LE(latency, floor + sim::microseconds(10))
      << "more than serialization slack above 2 x RTT + service";
}

// A server whose handler must answer each request first with
// respond(true, kFirstDownstream), whatever else it calls.
constexpr sim::Time kFirstDownstream = sim::microseconds(3);
constexpr sim::Time kLaterDownstream = sim::microseconds(7);

struct RespondOnceRun {
  RpcPair net;
  RpcServer server{&net.server_host, &net.registry, tcp::TcpConfig{},
                   RpcServerConfig{}, sim::Rng(testlib::test_seed(106))};
  RpcClient client{&net.client_host, &net.registry, net.server_host.ip(),
                   RpcServerConfig{}.port, tcp::TcpConfig{}};

  // Four calls, each answered exactly once by its first respond: one
  // finish() per request, counted as a response, none orphaned.
  void expect_one_response_per_request() {
    std::vector<RpcResult> results;
    for (int i = 0; i < 4; ++i) {
      client.call(200, sim::milliseconds(20),
                  [&results](const RpcResult& r) { results.push_back(r); });
    }
    net.sim.run_until(sim::milliseconds(20));

    ASSERT_EQ(results.size(), 4u);
    for (const RpcResult& r : results) {
      EXPECT_TRUE(r.ok) << "id " << r.id;
      EXPECT_FALSE(r.timed_out) << "id " << r.id;
      EXPECT_EQ(r.server_cost.downstream_ns, kFirstDownstream)
          << "id " << r.id;
    }
    EXPECT_EQ(server.stats().requests, 4);
    EXPECT_EQ(server.stats().responses, 4);
    EXPECT_EQ(server.stats().orphaned, 0);
    EXPECT_EQ(client.stats().late, 0);
    EXPECT_EQ(client.outstanding(), 0);
  }
};

TEST(RpcTest, RespondCalledTwiceAnswersOnce) {
  RespondOnceRun run;
  run.server.set_handler(
      [](const RpcServer::Request&, RpcServer::Respond respond) {
        respond(true, kFirstDownstream);
        respond(false, kLaterDownstream);
      });
  run.expect_one_response_per_request();
}

TEST(RpcTest, TwoCopiesOfRespondAnswerOnce) {
  RespondOnceRun run;
  sim::Simulator& sim = run.net.sim;
  run.server.set_handler(
      [&sim](const RpcServer::Request&, RpcServer::Respond respond) {
        const RpcServer::Respond copy = respond;
        copy(true, kFirstDownstream);
        // The original calls after the server has taken newer requests:
        // it must find its own request answered, not answer a newer one.
        sim.schedule(sim::microseconds(40),
                     [respond] { respond(false, kLaterDownstream); });
      });
  run.expect_one_response_per_request();
}

TEST(RpcTest, CloseWaitsForDeadlinesThenReleasesConnections) {
  RpcPair net;
  RpcServerConfig scfg;
  scfg.workers = 1;
  scfg.backlog_limit = 0;                    // second call is dropped
  scfg.service_time = sim::milliseconds(5);  // still in service at close()
  RpcServer server(&net.server_host, &net.registry, tcp::TcpConfig{}, scfg,
                   sim::Rng(testlib::test_seed(104)));
  RpcClient client(&net.client_host, &net.registry, net.server_host.ip(),
                   scfg.port, tcp::TcpConfig{});

  int served = 0;
  int timed_out = 0;
  for (int i = 0; i < 2; ++i) {
    client.call(128, sim::milliseconds(2), [&](const RpcResult& r) {
      (r.timed_out ? timed_out : served)++;
    });
  }
  net.sim.schedule(sim::milliseconds(1), [&client] { client.close(); });
  using State = tcp::TcpConnection::State;
  std::int64_t outstanding_after_close = -1;
  State before_deadlines = State::kClosed;
  State after_deadlines = State::kClosed;
  net.sim.schedule(sim::microseconds(1'500), [&] {
    outstanding_after_close = client.outstanding();
    before_deadlines = client.connection()->state();
  });
  net.sim.schedule(sim::microseconds(2'500), [&] {
    after_deadlines = client.connection()->state();
  });
  net.sim.run_until(sim::milliseconds(100));

  // close() ends no call: both wait for their 2 ms deadline — the one
  // still in service *and* the one the zero-size backlog dropped — and the
  // FIN leaves once the last has ended. The in-service request's response
  // still arrives (half-close keeps the receive path open) and is swallowed
  // as a late straggler. Both ends then release their connection objects
  // and the shared conduit entry dies.
  EXPECT_EQ(outstanding_after_close, 2);
  EXPECT_EQ(before_deadlines, State::kEstablished);
  EXPECT_EQ(after_deadlines, State::kFinWait);
  EXPECT_EQ(served, 0);
  EXPECT_EQ(timed_out, 2);
  EXPECT_EQ(client.stats().timed_out, 2);
  EXPECT_EQ(client.stats().late, 1);
  EXPECT_EQ(server.stats().rejected, 1);
  EXPECT_EQ(server.stats().responses, 1);
  EXPECT_TRUE(client.closed());
  EXPECT_EQ(net.registry.size(), 0u);
  EXPECT_EQ(net.client_host.connections_released(), 1);
  EXPECT_EQ(net.server_host.connections_released(), 1);
}

// App-tier preconditions hold in every build, NDEBUG included. Under
// NDEBUG, zero workers backlogged every request forever, a zero fan-out
// never fired `done`, and empty workers reached uniform_int(0, -1) and then
// an index modulo zero.
// A thinking session costs a heap entry, not a pending event: once the
// start tick has armed every think, the group's whole population waits
// behind one queue position, beside the connection's own few events.
TEST(UserGroupTest, ThinkTimersHoldOneQueuePosition) {
  RpcPair net;
  RpcServer server(&net.server_host, &net.registry, tcp::TcpConfig{},
                   RpcServerConfig{}, sim::Rng(testlib::test_seed(11)));
  const sim::Time start = sim::milliseconds(1);
  UserGroup group(&net.client_host, &net.registry, net.server_host.ip(),
                  RpcServerConfig{}.port, tcp::TcpConfig{},
                  UserPopulationConfig{}, /*sessions=*/10'000,
                  sim::Rng(testlib::test_seed(12)), start);
  net.sim.run_until(start);
  EXPECT_LE(net.sim.pending_events(), 4u);
  // The thinks still fire, one event each (2 s mean think time).
  net.sim.run_until(start + sim::milliseconds(20));
  EXPECT_GT(group.stats().issued, 0);
}

// A group's own stats carry its late responses: the client counts each
// straggler once, and the group reports that count without the service
// tier's merge.
TEST(UserGroupTest, OwnStatsReportTheClientsLateResponses) {
  RpcPair net;
  RpcServerConfig scfg;
  scfg.service_time = sim::milliseconds(5);  // well past the 2 ms deadline
  RpcServer server(&net.server_host, &net.registry, tcp::TcpConfig{}, scfg,
                   sim::Rng(testlib::test_seed(13)));
  UserPopulationConfig ucfg;
  ucfg.think_time_mean = sim::milliseconds(1);
  ucfg.deadline = sim::milliseconds(2);
  ucfg.slo = sim::milliseconds(1);
  ucfg.stop_after = sim::milliseconds(10);
  UserGroup group(&net.client_host, &net.registry, net.server_host.ip(),
                  scfg.port, tcp::TcpConfig{}, ucfg, /*sessions=*/4,
                  sim::Rng(testlib::test_seed(14)), /*start=*/0);
  net.sim.run_until(sim::milliseconds(200));

  ASSERT_GT(group.client().stats().late, 0);
  EXPECT_EQ(group.stats().late_responses, group.client().stats().late);
  EXPECT_EQ(group.stats().completed, 0);
}

TEST(AppTierDeathTest, RpcServerNeedsWorkers) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RpcPair net;
  RpcServerConfig scfg;
  scfg.workers = 0;
  EXPECT_DEATH(RpcServer(&net.server_host, &net.registry, tcp::TcpConfig{},
                         scfg, sim::Rng(1)),
               "rpc server on port 7000: workers must be positive "
               "\\(workers=0\\)");
}

TEST(AppTierDeathTest, RpcClientCallPreconditions) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RpcPair net;
  RpcClient client(&net.client_host, &net.registry, net.server_host.ip(),
                   7000, tcp::TcpConfig{});
  EXPECT_DEATH(client.call(-1, sim::kNoTime, {}),
               "rpc client 10.0.0.1: request_bytes must not be negative "
               "\\(-1\\)");
  client.close();
  EXPECT_DEATH(client.call(128, sim::kNoTime, {}),
               "rpc client 10.0.0.1: call\\(\\) after close\\(\\)");
}

TEST(AppTierDeathTest, RpcClientCallNeedsAPositiveDeadline) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RpcPair net;
  RpcClient client(&net.client_host, &net.registry, net.server_host.ip(),
                   7000, tcp::TcpConfig{});
  EXPECT_DEATH(client.call(128, sim::kNoTime, {}),
               "rpc client 10.0.0.1: deadline must be positive \\(-1\\)");
  EXPECT_DEATH(client.call(128, 0, {}),
               "rpc client 10.0.0.1: deadline must be positive \\(0\\)");
}

TEST(AppTierDeathTest, FanoutNeedsLeavesAndAPositiveFanout) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RpcPair net;
  EXPECT_DEATH(FanoutCoordinator(&net.sim, {}, FanoutConfig{}, sim::Rng(1)),
               "fanout: no leaf clients \\(leaves=0\\)");
  RpcClient leaf(&net.client_host, &net.registry, net.server_host.ip(), 7000,
                 tcp::TcpConfig{});
  FanoutConfig zero;
  zero.fanout = 0;
  EXPECT_DEATH(FanoutCoordinator(&net.sim, {&leaf}, zero, sim::Rng(1)),
               "fanout: fanout must be positive \\(fanout=0\\)");
}

TEST(AppTierDeathTest, FanoutNeedsAPositiveLeafDeadline) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RpcPair net;
  RpcClient leaf(&net.client_host, &net.registry, net.server_host.ip(), 7000,
                 tcp::TcpConfig{});
  FanoutConfig config;
  config.leaf_deadline = 0;
  EXPECT_DEATH(
      FanoutCoordinator(&net.sim, {&leaf}, config, sim::Rng(1)),
      "fanout: leaf_deadline must be positive \\(leaf_deadline=0\\)");
  config.leaf_deadline = sim::kNoTime;
  EXPECT_DEATH(
      FanoutCoordinator(&net.sim, {&leaf}, config, sim::Rng(1)),
      "fanout: leaf_deadline must be positive \\(leaf_deadline=-1\\)");
}

TEST(AppTierDeathTest, UserGroupNeedsSessions) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RpcPair net;
  EXPECT_DEATH(UserGroup(&net.client_host, &net.registry, net.server_host.ip(),
                         7000, tcp::TcpConfig{}, UserPopulationConfig{},
                         /*sessions=*/0, sim::Rng(1), 0),
               "user group: sessions must be positive \\(sessions=0\\)");
}

TEST(AppTierDeathTest, ServiceTierNeedsEveryRole) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RpcPair net;
  ServiceRoles roles;
  roles.clients = {&net.client_host};
  roles.frontends = {&net.server_host};
  EXPECT_DEATH(ServiceTier(roles, ServiceConfig{}, tcp::TcpConfig{},
                           sim::Rng(1)),
               "service tier: every role needs a host \\(clients=1, "
               "frontends=1, workers=0\\)");
}

}  // namespace
}  // namespace acdc::app
