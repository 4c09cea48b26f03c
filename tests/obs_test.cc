// Unit tests for the observability layer: flight-recorder ring semantics,
// source interning, the component tap, metrics registry + snapshot
// sampling, and the three exporters — plus an end-to-end check that a
// traced AC/DC run emits the events the paper's figures are built from.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "exp/mode.h"
#include "exp/star.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace acdc::obs {
namespace {

TraceEvent make_event(sim::Time t, EventType type, std::int64_t a = 0) {
  TraceEvent ev;
  ev.t = t;
  ev.type = type;
  ev.a = a;
  return ev;
}

// Writes `ev` through emit(), the ring's one way in.
void put(FlightRecorder& rec, const TraceEvent& ev) {
  rec.emit(ev.type, [&ev](TraceEvent& slot) { slot = ev; });
}

TEST(FlightRecorderTest, ZeroCapacityStaysDisabled) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.set_enabled(true);  // no storage -> cannot enable
  EXPECT_FALSE(rec.enabled());
  put(rec, make_event(1, EventType::kEcnMark));
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.recorded_events(), 0u);

  FlightRecorder sized(8);
  EXPECT_TRUE(sized.enabled());  // storage -> ready to record
  put(sized, make_event(1, EventType::kEcnMark));
  EXPECT_EQ(sized.size(), 1u);
}

TEST(FlightRecorderTest, RingOverwritesOldest) {
  FlightRecorder rec(4);
  rec.set_enabled(true);
  for (std::int64_t i = 0; i < 7; ++i) {
    put(rec, make_event(i, EventType::kQueueEnqueue, i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.recorded_events(), 7u);
  EXPECT_EQ(rec.overwritten_events(), 3u);
  // Oldest-first iteration over the surviving tail (3, 4, 5, 6).
  std::int64_t expect = 3;
  rec.for_each([&](const TraceEvent& ev) {
    EXPECT_EQ(ev.a, expect);
    EXPECT_EQ(ev.t, expect);
    ++expect;
  });
  EXPECT_EQ(expect, 7);
  EXPECT_EQ(rec.at(0).a, 3);
  EXPECT_EQ(rec.at(3).a, 6);
}

TEST(FlightRecorderTest, CountByTypeAndClear) {
  FlightRecorder rec(16);
  rec.set_enabled(true);
  put(rec, make_event(1, EventType::kEcnMark));
  put(rec, make_event(2, EventType::kEcnMark));
  put(rec, make_event(3, EventType::kQueueDrop));
  EXPECT_EQ(rec.count(EventType::kEcnMark), 2u);
  EXPECT_EQ(rec.count(EventType::kQueueDrop), 1u);
  EXPECT_EQ(rec.count(EventType::kPackAttached), 0u);
  rec.clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.count(EventType::kEcnMark), 0u);
}

TEST(FlightRecorderTest, SetEnabledGates) {
  FlightRecorder rec(4);
  rec.set_enabled(true);
  put(rec, make_event(1, EventType::kEcnMark));
  rec.set_enabled(false);
  put(rec, make_event(2, EventType::kEcnMark));
  EXPECT_EQ(rec.size(), 1u);
}

TEST(FlightRecorderTest, SetCapacityResizesAndZeroDisables) {
  FlightRecorder rec(2);
  rec.set_enabled(true);
  put(rec, make_event(1, EventType::kEcnMark));
  rec.set_capacity(8);  // discards existing events
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.capacity(), 8u);
  rec.set_enabled(true);
  put(rec, make_event(2, EventType::kEcnMark));
  EXPECT_EQ(rec.size(), 1u);
  rec.set_capacity(0);
  EXPECT_FALSE(rec.enabled());
  rec.set_enabled(true);
  EXPECT_FALSE(rec.enabled());
}

TEST(FlightRecorderTest, SourceInterning) {
  FlightRecorder rec(4);
  const std::uint32_t a = rec.register_source("switch:p0");
  const std::uint32_t b = rec.register_source("acdc.h0");
  EXPECT_NE(a, 0u);  // 0 is reserved for "unattributed"
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.register_source("switch:p0"), a);  // same name -> same id
  EXPECT_EQ(rec.source_name(a), "switch:p0");
  EXPECT_EQ(rec.source_name(b), "acdc.h0");
}

// The guard idiom every hook site uses.
void hook(const Tap& tap) {
  if (tap) tap.emit(EventType::kEcnMark, 1, {}, 1);
}

TEST(TapTest, OffWithoutAnEnabledRecorderAndRecordsNothing) {
  const Tap unset;
  EXPECT_FALSE(unset);
  hook(unset);

  const Tap no_recorder(nullptr, "switch:p0");
  EXPECT_FALSE(no_recorder);
  hook(no_recorder);

  FlightRecorder no_storage;  // capacity 0: disabled for good
  const Tap on_no_storage(&no_storage, "switch:p0");
  EXPECT_FALSE(on_no_storage);
  hook(on_no_storage);
  on_no_storage.emit(EventType::kEcnMark, 1, {}, 1);  // even unguarded
  EXPECT_EQ(no_storage.recorded_events(), 0u);

  FlightRecorder paused(4);
  paused.set_enabled(false);
  const Tap on_paused(&paused, "switch:p0");
  EXPECT_FALSE(on_paused);
  hook(on_paused);
  EXPECT_TRUE(paused.empty());
  // The tap follows its recorder's switch, not a copy of it.
  paused.set_enabled(true);
  EXPECT_TRUE(on_paused);
  hook(on_paused);
  EXPECT_EQ(paused.size(), 1u);
}

TEST(TapTest, StampsItsSourceAndTheGivenFields) {
  FlightRecorder rec(8);
  rec.register_source("acdc.h0");
  const Tap tap(&rec, "switch:p3");
  ASSERT_TRUE(tap);
  const Flow flow{0x0A000001, 0x0A000002, 5000, 80};
  tap.emit(EventType::kPktTxStart, 1234, flow, 7, -8, 0.5);
  ASSERT_EQ(rec.size(), 1u);
  const TraceEvent& ev = rec.at(0);
  EXPECT_EQ(ev.type, EventType::kPktTxStart);
  EXPECT_EQ(ev.t, 1234);
  EXPECT_EQ(ev.source, 2u);  // after "" and "acdc.h0"
  EXPECT_EQ(rec.source_name(ev.source), "switch:p3");
  EXPECT_EQ(ev.src_ip, flow.src_ip);
  EXPECT_EQ(ev.dst_ip, flow.dst_ip);
  EXPECT_EQ(ev.src_port, flow.src_port);
  EXPECT_EQ(ev.dst_port, flow.dst_port);
  EXPECT_EQ(ev.a, 7);
  EXPECT_EQ(ev.b, -8);
  EXPECT_EQ(ev.x, 0.5);

  // b and x default to zero; an empty flow is not flow-scoped.
  tap.emit(EventType::kQueueOccupancy, 2000, {}, 3);
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.at(1).a, 3);
  EXPECT_EQ(rec.at(1).b, 0);
  EXPECT_EQ(rec.at(1).x, 0.0);
  EXPECT_FALSE(rec.at(1).flow_scoped());
}

TEST(TapTest, SharedNamesShareAnIdInFirstRegistrationOrder) {
  FlightRecorder rec(4);
  const Tap rx(&rec, "h0:rx");
  const Tap tx(&rec, "h0:tx");
  const Tap rx_again(&rec, "h0:rx");
  for (const Tap* tap : {&rx, &tx, &rx_again}) {
    tap->emit(EventType::kPktDeliver, 1, {}, 0);
  }
  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.at(0).source, 1u);  // 0 stays "unattributed"
  EXPECT_EQ(rec.at(1).source, 2u);
  EXPECT_EQ(rec.at(2).source, 1u);
  EXPECT_EQ(rec.sources(),
            (std::vector<std::string>{"", "h0:rx", "h0:tx"}));
}

TEST(TraceEventTest, MetaTableCoversAllTypes) {
  for (int i = 0; i < static_cast<int>(EventType::kCount); ++i) {
    const EventMeta& meta = event_meta(static_cast<EventType>(i));
    EXPECT_NE(meta.name, nullptr) << "type " << i;
    EXPECT_STRNE(meta.name, "") << "type " << i;
  }
}

TEST(MetricsRegistryTest, CountersGaugesAndValues) {
  MetricsRegistry reg;
  std::int64_t& owned = reg.counter("owned");
  std::int64_t external = 7;
  reg.register_counter("external", &external);
  double g = 1.5;
  reg.register_gauge("gauge", [&g] { return g; });

  owned = 42;
  EXPECT_EQ(reg.metric_count(), 3u);
  EXPECT_TRUE(reg.has("owned"));
  EXPECT_FALSE(reg.has("missing"));
  EXPECT_DOUBLE_EQ(reg.value("owned"), 42.0);
  EXPECT_DOUBLE_EQ(reg.value("external"), 7.0);
  EXPECT_DOUBLE_EQ(reg.value("gauge"), 1.5);
  EXPECT_DOUBLE_EQ(reg.value("missing"), 0.0);
}

TEST(MetricsRegistryTest, SnapshotsAndLateRegistrationPadding) {
  MetricsRegistry reg;
  std::int64_t& c = reg.counter("c");
  c = 1;
  reg.sample(10);
  c = 5;
  std::int64_t& late = reg.counter("late");  // registered mid-run
  late = 9;
  reg.sample(20);

  ASSERT_EQ(reg.snapshots().size(), 2u);
  EXPECT_EQ(reg.snapshots()[0].t, 10);
  ASSERT_EQ(reg.snapshots()[0].values.size(), 1u);  // no "late" yet
  EXPECT_DOUBLE_EQ(reg.snapshots()[0].values[0], 1.0);
  ASSERT_EQ(reg.snapshots()[1].values.size(), 2u);
  EXPECT_DOUBLE_EQ(reg.snapshots()[1].values[1], 9.0);

  std::ostringstream csv;
  reg.write_csv(csv);
  // Short first row is padded with 0 for the late metric.
  EXPECT_EQ(csv.str(), "t_ns,c,late\n10,1,0\n20,5,9\n");
}

TEST(MetricsRegistryTest, ScheduledSamplingOnSimulator) {
  sim::Simulator sim;
  MetricsRegistry reg;
  std::int64_t& ticks = reg.counter("ticks");
  reg.schedule_sampling(&sim, sim::milliseconds(1), sim::milliseconds(5));
  // Off the sampling grid so there is no same-timestamp ordering question.
  sim.schedule(sim::microseconds(2500), [&ticks] { ticks = 3; });
  sim.run_until(sim::milliseconds(10));
  // Samples at 0,1,2,3,4,5 ms inclusive bound.
  ASSERT_EQ(reg.snapshots().size(), 6u);
  EXPECT_DOUBLE_EQ(reg.snapshots()[2].values[0], 0.0);
  EXPECT_DOUBLE_EQ(reg.snapshots()[3].values[0], 3.0);
  EXPECT_EQ(reg.snapshots()[5].t, sim::milliseconds(5));
}

TEST(ExportTest, JsonlAndCsvShapes) {
  FlightRecorder rec(8);
  rec.set_enabled(true);
  const std::uint32_t src = rec.register_source("switch:p1");
  TraceEvent ev = make_event(1500, EventType::kEcnMark, 9000);
  ev.source = src;
  ev.src_ip = 0x0A000001;  // 10.0.0.1
  ev.dst_ip = 0x0A000002;
  ev.src_port = 5000;
  ev.dst_port = 40000;
  put(rec, ev);
  put(rec, make_event(2000, EventType::kQueueDrop, 100));

  EXPECT_EQ(flow_to_string(ev), "10.0.0.1:5000>10.0.0.2:40000");
  EXPECT_EQ(flow_to_string(make_event(0, EventType::kQueueDrop)), "");

  const MergedTrace trace =
      merge_recorders(std::vector<const FlightRecorder*>{&rec});
  std::ostringstream jsonl;
  write_trace_jsonl(trace, jsonl);
  const std::string j = jsonl.str();
  EXPECT_EQ(std::count(j.begin(), j.end(), '\n'), 2);
  EXPECT_NE(j.find("\"type\":\"ecn_mark\""), std::string::npos);
  EXPECT_NE(j.find("\"src\":\"switch:p1\""), std::string::npos);
  EXPECT_NE(j.find("10.0.0.1:5000>10.0.0.2:40000"), std::string::npos);
}

TEST(ExportTest, ChromeTraceIsWellFormed) {
  FlightRecorder rec(8);
  rec.set_enabled(true);
  put(rec, make_event(1000, EventType::kWindowEnforced, 65536));
  put(rec, make_event(2000, EventType::kEcnMark, 1));
  MetricsRegistry reg;
  std::int64_t& c = reg.counter("c");
  c = 3;
  reg.sample(1000);

  std::ostringstream os;
  write_chrome_trace(merge_recorders(std::vector<const FlightRecorder*>{&rec}),
                     &reg, os);
  const std::string s = os.str();
  EXPECT_EQ(s.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(s.substr(s.size() - 3), "]}\n");
  // Counter track for the continuous signal, instant for the discrete one.
  EXPECT_NE(s.find("\"name\":\"rwnd_bytes\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"ecn_mark\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
  // Metrics snapshots ride along under their own process.
  EXPECT_NE(s.find("\"name\":\"c\""), std::string::npos);
}

// End-to-end: a traced AC/DC transfer emits the events the paper's
// figures are built from, and the registry absorbs every layer's counters.
TEST(ObsIntegrationTest, TracedAcdcRunEmitsDatapathEvents) {
  exp::StarConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kAcdc);
  cfg.hosts = 2;
  exp::Star star(cfg);
  exp::Scenario& s = star.scenario();
  FlightRecorder& rec = s.enable_tracing(/*ring_capacity=*/1 << 18);
  s.attach_acdc(star.host(0), {});
  s.attach_acdc(star.host(1), {});

  const tcp::TcpConfig tenant = s.tcp_config(tcp::CcId::kCubic);
  s.add_bulk_flow(star.host(0), star.host(1), tenant, 0, 8 * 1024 * 1024);
  s.run_until(sim::milliseconds(50));

  EXPECT_GT(rec.count(EventType::kWindowEnforced), 0u);
  EXPECT_GT(rec.count(EventType::kQueueEnqueue), 0u);
  EXPECT_GT(rec.count(EventType::kQueueOccupancy), 0u);
  EXPECT_GT(rec.count(EventType::kPackAttached), 0u);
  EXPECT_GT(rec.count(EventType::kEcnStrip), 0u);
  EXPECT_GT(rec.count(EventType::kConnState), 0u);
  EXPECT_GT(rec.count(EventType::kTcpCwnd), 0u);

  ASSERT_NE(s.metrics(), nullptr);
  EXPECT_GT(s.metrics()->value("acdc.h0.acks_processed"), 0.0);
  EXPECT_GT(s.metrics()->value("h0.rx_packets"), 0.0);
  EXPECT_FALSE(s.metrics()->snapshots().empty());

  // Every recorded event carries a registered source.
  rec.for_each([&](const TraceEvent& ev) {
    EXPECT_LT(ev.source, rec.sources().size());
  });

  EXPECT_GT(s.metrics()->value("acdc.h0.windows_lowered"), 0.0);
}

// The per-hop trace vocabulary, pinned by conservation on a lossy incast:
// each transmission emits pkt_tx_start (uid-stamped) or queue_occupancy
// (uid 0, which also emitted queue_enqueue on admission), each switch drop
// pkt_drop or queue_drop, and each originated packet ends delivered or
// dropped.
TEST(ObsIntegrationTest, PerHopEventsConservePackets) {
  exp::StarConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kCubic, 1500);
  cfg.scenario.switch_buffer_bytes = 200 * 1024;
  cfg.hosts = 9;
  exp::Star star(cfg);
  exp::Scenario& s = star.scenario();
  FlightRecorder& rec = s.enable_tracing(/*ring_capacity=*/1024,
                                         /*metrics_interval=*/0);
  std::int64_t n[static_cast<int>(EventType::kCount)] = {};
  rec.add_listener([&](const TraceEvent& ev) {
    ++n[static_cast<int>(ev.type)];
  });
  const auto count = [&](EventType t) { return n[static_cast<int>(t)]; };

  const tcp::TcpConfig tenant = s.tcp_config(tcp::CcId::kCubic);
  std::vector<host::BulkApp*> apps;
  for (int i = 1; i < star.host_count(); ++i) {
    apps.push_back(
        s.add_bulk_flow(star.host(i), star.host(0), tenant, 0, 1 << 20));
  }
  s.simulator().run();
  for (const host::BulkApp* app : apps) EXPECT_TRUE(app->completed());

  std::int64_t transmitted = 0;
  for (int i = 0; i < star.host_count(); ++i) {
    transmitted += star.host(i)->nic().tx_port().transmitted_packets();
  }
  for (const auto& port : star.hub()->ports()) {
    transmitted += port->transmitted_packets();
  }
  const std::int64_t dropped = s.fabric_stats().dropped_packets;
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(count(EventType::kPktTxStart) + count(EventType::kQueueOccupancy),
            transmitted);
  EXPECT_EQ(count(EventType::kQueueEnqueue),
            count(EventType::kQueueOccupancy));
  EXPECT_EQ(count(EventType::kPktDrop) + count(EventType::kQueueDrop),
            dropped);
  EXPECT_EQ(count(EventType::kPktOrigin),
            count(EventType::kPktDeliver) + count(EventType::kPktDrop));
}

}  // namespace
}  // namespace acdc::obs
