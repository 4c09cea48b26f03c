// Integration tests for the AC/DC vSwitch datapath on a host pair:
// transparency, ECN marking/stripping, PACK/FACK feedback, RWND
// enforcement, observer mode, policing, per-flow policy, timeout inference,
// flow GC, and the §3.3 injection features; plus the burst prefetch
// pipeline against packet-at-a-time processing.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "acdc/vswitch.h"
#include "host/host.h"
#include "net/datapath.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "tcp/tcp_connection.h"
#include "testlib/seed.h"

namespace acdc {
namespace {

using host::Host;
using tcp::TcpConfig;
using tcp::TcpConnection;
using vswitch::AcdcConfig;
using vswitch::AcdcVswitch;
using vswitch::FlowKey;

// Wire-level observer/impairment placed between the two NICs: can mark CE
// on data (a congested ECN switch in one filter) and record what it saw.
class WireTap : public net::PacketSink {
 public:
  explicit WireTap(net::PacketSink* next) : next_(next) {}

  void receive(net::PacketPtr p) override {
    if (p->payload_bytes > 0) {
      ++data_packets_;
      if (net::ecn_capable(p->ip.ecn)) ++ect_data_packets_;
      if (mark_all_ && net::ecn_capable(p->ip.ecn)) {
        p->ip.ecn = net::Ecn::kCe;
        ++marked_;
      }
      if (drop_next_ > 0) {
        --drop_next_;
        return;
      }
    } else if (!p->acdc_fack) {
      ++control_packets_;
      if (net::ecn_capable(p->ip.ecn)) ++ect_control_packets_;
    }
    if (p->tcp.options.acdc) ++packs_seen_;
    if (p->acdc_fack) ++facks_seen_;
    next_->receive(std::move(p));
  }

  net::PacketSink* next_;
  bool mark_all_ = false;
  int drop_next_ = 0;
  std::int64_t data_packets_ = 0;
  std::int64_t ect_data_packets_ = 0;
  std::int64_t control_packets_ = 0;  // SYNs, pure ACKs, FINs (no FACKs)
  std::int64_t ect_control_packets_ = 0;
  std::int64_t marked_ = 0;
  std::int64_t packs_seen_ = 0;
  std::int64_t facks_seen_ = 0;
};

// Pass-through filter between a tenant stack and its vSwitch: counts the
// congestion signals that actually reach the VM.
class VmTap : public net::DuplexFilter {
 public:
  std::int64_t ce_data_in_ = 0;   // CE-marked data delivered to the VM
  std::int64_t ece_acks_in_ = 0;  // ECN-Echo ACKs delivered to the VM

 protected:
  void handle_ingress(net::PacketPtr p) override {
    if (p->payload_bytes > 0 && p->ip.ecn == net::Ecn::kCe) ++ce_data_in_;
    if (p->tcp.flags.ack && !p->tcp.flags.syn && p->tcp.flags.ece) {
      ++ece_acks_in_;
    }
    send_up(std::move(p));
  }
};

struct AcdcPair {
  sim::Simulator sim;
  std::unique_ptr<Host> a;
  std::unique_ptr<Host> b;
  std::unique_ptr<AcdcVswitch> vs_a;
  std::unique_ptr<AcdcVswitch> vs_b;
  std::unique_ptr<WireTap> tap_ab;
  std::unique_ptr<WireTap> tap_ba;
  VmTap vm_a;
  VmTap vm_b;

  explicit AcdcPair(const AcdcConfig& cfg = AcdcConfig{}) {
    host::HostConfig hc;
    // No fabric buffer on this switchless link: let the NIC absorb
    // slow-start bursts so only deliberate impairments cause loss.
    hc.nic_queue_bytes = 8 * 1024 * 1024;
    a = std::make_unique<Host>(&sim, "A", net::make_ip(10, 0, 0, 1), hc);
    b = std::make_unique<Host>(&sim, "B", net::make_ip(10, 0, 0, 2), hc);
    vs_a = std::make_unique<AcdcVswitch>(&sim, cfg);
    vs_b = std::make_unique<AcdcVswitch>(&sim, cfg);
    a->add_filter(&vm_a);  // the first filter sits next to the stack
    b->add_filter(&vm_b);
    a->add_filter(vs_a.get());
    b->add_filter(vs_b.get());
    tap_ab = std::make_unique<WireTap>(&b->nic());
    tap_ba = std::make_unique<WireTap>(&a->nic());
    a->nic().tx_port().set_peer(tap_ab.get());
    b->nic().tx_port().set_peer(tap_ba.get());
  }

  TcpConnection* start_transfer(std::int64_t bytes,
                                TcpConfig cfg = TcpConfig{}) {
    b->listen(80, cfg);
    TcpConnection* c = a->connect(b->ip(), 80, cfg);
    c->on_established = [c, bytes] { c->send(bytes); };
    return c;
  }
};

TcpConfig cubic_cfg() {
  TcpConfig c;
  c.cc = tcp::CcId::kCubic;
  c.mss = 1448;
  return c;
}

TEST(AcdcVswitchTest, TransparentToCleanTransfer) {
  AcdcPair net;
  TcpConnection* c = net.start_transfer(1'000'000, cubic_cfg());
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
  EXPECT_EQ(c->stats().retransmissions, 0);
}

TEST(AcdcVswitchTest, TwoEntriesPerConnection) {
  AcdcPair net;
  net.start_transfer(100'000, cubic_cfg());
  net.sim.run_until(sim::milliseconds(100));
  // Each vSwitch tracks both directions (§4).
  EXPECT_EQ(net.vs_a->flows().size(), 2u);
  EXPECT_EQ(net.vs_b->flows().size(), 2u);
}

TEST(AcdcVswitchTest, MarksEgressDataEctEvenForNonEcnVm) {
  AcdcPair net;
  net.start_transfer(500'000, cubic_cfg());  // CUBIC VM: no ECN
  net.sim.run_until(sim::seconds(1));
  EXPECT_GT(net.tap_ab->data_packets_, 0);
  EXPECT_EQ(net.tap_ab->ect_data_packets_, net.tap_ab->data_packets_)
      << "all data on the wire must be ECN-capable (§3.2)";
}

TEST(AcdcVswitchTest, GeneratesPackFeedbackOnAcks) {
  AcdcPair net;
  net.start_transfer(500'000, cubic_cfg());
  net.sim.run_until(sim::seconds(1));
  EXPECT_GT(net.tap_ba->packs_seen_, 0) << "ACKs must carry PACK feedback";
  EXPECT_GT(net.vs_b->stats().packs_attached, 0);
  // The PACK option never reaches the VM: A's stack saw clean ACKs (if it
  // had, nothing in the stack would strip it; assert the vswitch did).
  EXPECT_EQ(net.vs_a->stats().facks_consumed, 0);
}

TEST(AcdcVswitchTest, EnforcesWindowUnderCongestion) {
  AcdcPair net;
  net.tap_ab->mark_all_ = true;  // saturated ECN switch
  TcpConnection* c = net.start_transfer(2'000'000, cubic_cfg());
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 2'000'000);
  EXPECT_GT(net.vs_a->stats().windows_lowered, 0);
  // The VM's view of the peer window is AC/DC's enforced window: small.
  EXPECT_LT(c->peer_rwnd_bytes(), 256 * 1024);
  // And the VM's own stack never saw ECN feedback.
  EXPECT_EQ(c->stats().ecn_reductions, 0);
}

TEST(AcdcVswitchTest, StripsCeBeforeReceiverVm) {
  AcdcPair net;
  net.tap_ab->mark_all_ = true;
  TcpConfig ecn_cfg = cubic_cfg();
  ecn_cfg.ecn = true;  // even an ECN-capable VM must not see CE (§3.2)
  TcpConnection* c = net.start_transfer(1'000'000, ecn_cfg);
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
  EXPECT_GT(net.tap_ab->marked_, 0);
  EXPECT_EQ(c->stats().ecn_reductions, 0)
      << "ECE must never reach the sending VM";
}

TEST(AcdcVswitchTest, ObserverModeComputesButDoesNotEnforce) {
  AcdcConfig cfg;
  cfg.enforce = false;  // Fig. 9: log, leave the VM's traffic untouched
  AcdcPair net(cfg);
  net.tap_ab->mark_all_ = true;  // saturated ECN switch
  int window_logs = 0;
  std::int64_t last_window = 0;
  obs::FlightRecorder window_log(1);  // the listener sees every event
  net.vs_a->attach_observability({.recorder = &window_log});
  window_log.add_listener([&](const obs::TraceEvent& ev) {
    if (ev.type != obs::EventType::kWindowEnforced) return;
    ++window_logs;
    last_window = ev.a;
  });
  TcpConfig ecn_cfg = cubic_cfg();
  ecn_cfg.ecn = true;  // the VM's own ECN loop runs, AC/DC only watches
  TcpConnection* c = net.start_transfer(1'000'000, ecn_cfg);
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
  EXPECT_GT(window_logs, 0);
  EXPECT_GT(last_window, 0);
  // No ECT marking: the VM's pure ACKs leave the vSwitch Not-ECT.
  EXPECT_GT(net.tap_ba->control_packets_, 0);
  EXPECT_EQ(net.tap_ba->ect_control_packets_, 0)
      << "observer mode must not mark egress packets ECT";
  // CE reaches the receiving VM, and its ECN-Echo reaches the sender's.
  EXPECT_GT(net.tap_ab->marked_, 0);
  EXPECT_GT(net.vm_b.ce_data_in_, 0) << "CE must reach the receiving VM";
  EXPECT_GT(net.vm_a.ece_acks_in_, 0) << "ECE must reach the sending VM";
  EXPECT_GT(c->stats().ecn_reductions, 0);
  // RWND untouched.
  EXPECT_EQ(net.vs_a->stats().windows_lowered, 0);
  EXPECT_GT(c->peer_rwnd_bytes(), 1 << 20) << "peer window untouched";
}

TEST(AcdcVswitchTest, FackPathWhenPackDoesNotFit) {
  AcdcConfig cfg;
  cfg.mtu_bytes = 48;  // force every PACK to overflow into a FACK
  AcdcPair net(cfg);
  net.start_transfer(300'000, cubic_cfg());
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 300'000);
  EXPECT_GT(net.vs_b->stats().facks_sent, 0);
  EXPECT_EQ(net.vs_a->stats().facks_consumed, net.vs_b->stats().facks_sent);
  EXPECT_GT(net.tap_ba->facks_seen_, 0);
}

TEST(AcdcVswitchTest, PolicingDropsNonConformingFlow) {
  AcdcConfig cfg;
  AcdcPair net(cfg);
  vswitch::FlowPolicy police = net.vs_a->policy().default_policy();
  police.police = true;
  net.vs_a->policy().set_default(police);
  net.tap_ab->mark_all_ = true;  // heavy congestion -> tiny enforced window

  TcpConfig rogue = cubic_cfg();
  rogue.cc = tcp::CcId::kAggressive;
  rogue.ignore_peer_rwnd = true;
  net.start_transfer(5'000'000, rogue);
  net.sim.run_until(sim::seconds(2));
  EXPECT_GT(net.vs_a->stats().policed_drops, 0)
      << "a stack ignoring RWND must be policed (§3.3)";
}

TEST(AcdcVswitchTest, ConformingFlowIsNotPoliced) {
  AcdcConfig cfg;
  AcdcPair net(cfg);
  vswitch::FlowPolicy police = net.vs_a->policy().default_policy();
  police.police = true;
  net.vs_a->policy().set_default(police);
  net.tap_ab->mark_all_ = true;
  net.start_transfer(1'000'000, cubic_cfg());
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.vs_a->stats().policed_drops, 0);
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
}

TEST(AcdcVswitchTest, PerFlowPolicyAssignsAlgorithm) {
  AcdcPair net;
  vswitch::FlowPolicy wan;
  wan.kind = vswitch::VccKind::kCubic;
  net.vs_a->policy().add_dst_port_rule(80, wan);
  net.start_transfer(100'000, cubic_cfg());
  net.sim.run_until(sim::milliseconds(200));
  const FlowKey key{net.a->ip(), net.b->ip(),
                    net.a->connections()[0]->local().port, 80};
  vswitch::FlowRef entry = net.vs_a->flows().find(key);
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry.cold->policy.kind, vswitch::VccKind::kCubic);
  EXPECT_EQ(entry.hot->cc_kind, vswitch::VccKind::kCubic);
}

TEST(AcdcVswitchTest, RwndCapBoundsFlow) {
  AcdcPair net;
  vswitch::FlowPolicy capped;
  capped.max_rwnd_bytes = 20'000;
  net.vs_a->policy().set_default(capped);
  TcpConnection* c = net.start_transfer(5'000'000, cubic_cfg());
  net.sim.run_until(sim::milliseconds(500));
  // The enforced value is the cap rounded up to the peer's window-scale
  // granularity (2^9 here).
  EXPECT_LE(c->peer_rwnd_bytes(), 20'000 + 512);
  EXPECT_LE(c->bytes_in_flight(), 20'000 + 512 + 1448);
}

TEST(AcdcVswitchTest, InfersTimeoutsOnStall) {
  AcdcConfig cfg;
  cfg.inactivity_timeout = sim::milliseconds(20);
  AcdcPair net(cfg);
  TcpConfig slow = cubic_cfg();
  slow.min_rto = sim::milliseconds(200);  // VM recovers slower than AC/DC
  net.b->listen(80, slow);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, slow);
  c->on_established = [&, c] {
    // Blackhole the path so every data segment is lost.
    net.tap_ab->drop_next_ = 1'000'000;
    c->send(200'000);
  };
  net.sim.run_until(sim::milliseconds(150));
  EXPECT_GT(net.vs_a->stats().inferred_timeouts, 0);
  const FlowKey key{net.a->ip(), net.b->ip(), c->local().port, 80};
  vswitch::FlowRef entry = net.vs_a->flows().find(key);
  ASSERT_TRUE(entry);
  EXPECT_LE(entry.hot->cwnd_bytes, 2.0 * entry.hot->mss)
      << "virtual window collapses on inferred RTO";
}

TEST(AcdcVswitchTest, GarbageCollectsClosedFlows) {
  AcdcConfig cfg;
  cfg.fin_linger = sim::milliseconds(100);
  cfg.gc_interval = sim::milliseconds(200);
  AcdcPair net(cfg);
  net.b->listen(80, cubic_cfg(), [](TcpConnection* srv) {
    srv->on_deliver = [srv](std::int64_t total) {
      if (total >= 10'000) srv->close();
    };
  });
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cubic_cfg());
  c->on_established = [c] {
    c->send(10'000);
    c->close();
  };
  net.sim.run_until(sim::milliseconds(50));
  EXPECT_EQ(net.vs_a->flows().size(), 2u);
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.vs_a->flows().size(), 0u) << "FIN + linger must GC entries";
  EXPECT_GT(net.vs_a->flows().stats().gc_removed, 0);
}

TEST(AcdcVswitchTest, WindowUpdateInjection) {
  AcdcPair net;
  vswitch::FlowPolicy capped;
  capped.max_rwnd_bytes = 30'000;
  net.vs_a->policy().set_default(capped);
  TcpConnection* c = net.start_transfer(200'000, cubic_cfg());
  net.sim.run_until(sim::milliseconds(100));
  const FlowKey key{net.a->ip(), net.b->ip(), c->local().port, 80};
  ASSERT_TRUE(net.vs_a->send_window_update(key));
  net.sim.run_until(sim::milliseconds(101));
  EXPECT_EQ(net.vs_a->stats().injected_window_updates, 1);
  EXPECT_LE(c->peer_rwnd_bytes(), 30'000);
  // Unknown flow -> refused.
  FlowKey bogus = key;
  bogus.dst_port = 1;
  EXPECT_FALSE(net.vs_a->send_window_update(bogus));
}

TEST(AcdcVswitchTest, DupackInjectionTriggersVmRetransmit) {
  AcdcConfig cfg;
  AcdcPair net(cfg);
  TcpConfig nosack = cubic_cfg();  // bare dupACKs only count without SACK
  nosack.sack = false;
  nosack.min_rto = sim::seconds(2);  // VM RTO far too large (§3.3 use case)
  net.b->listen(80, nosack);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, nosack);
  c->on_established = [&, c] {
    // A first message succeeds (priming the vSwitch's ACK template)...
    c->send(1'448);
    // ...then the next segment is lost; a lone segment begets no dupACKs.
    net.sim.schedule(sim::milliseconds(1), [&, c] {
      net.tap_ab->drop_next_ = 1;
      c->send(1'448);
    });
  };
  net.sim.run_until(sim::milliseconds(100));
  ASSERT_EQ(net.b->connections()[0]->delivered_bytes(), 1'448);
  const FlowKey key{net.a->ip(), net.b->ip(), c->local().port, 80};
  ASSERT_TRUE(net.vs_a->send_dupacks(key, 3));
  net.sim.run_until(sim::milliseconds(200));
  EXPECT_GE(c->stats().fast_retransmits, 1);
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 2 * 1'448)
      << "vSwitch-generated dupACKs must trigger the VM's fast retransmit";
}

TEST(AcdcVswitchTest, DctcpHostStackUnderAcdcStaysQuiet) {
  // Table 1 "DCTCP" row: a DCTCP VM under AC/DC. The vSwitch hides all ECN
  // signals, so the VM's own DCTCP never reduces; AC/DC drives the rate.
  AcdcPair net;
  net.tap_ab->mark_all_ = true;
  TcpConfig d = cubic_cfg();
  d.cc = tcp::CcId::kDctcp;
  d.ecn = true;
  TcpConnection* c = net.start_transfer(1'000'000, d);
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
  EXPECT_EQ(c->stats().ecn_reductions, 0);
  EXPECT_GT(net.vs_a->stats().windows_lowered, 0);
}

// Every field a vSwitch may rewrite or a VM may read, as one line.
std::string describe(const net::Packet& p) {
  const net::TcpHeader& t = p.tcp;
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "%08x:%u>%08x:%u seq=%u ack=%u f=%d%d%d%d%d%d%d win=%u vmecn=%d "
      "ecn=%d pay=%lld fack=%d mss=%d ws=%d sack=%zu pack=%lld/%lld telem=%d",
      p.ip.src, t.src_port, p.ip.dst, t.dst_port, t.seq, t.ack_seq,
      t.flags.syn, t.flags.ack, t.flags.fin, t.flags.rst, t.flags.psh,
      t.flags.ece, t.flags.cwr, t.window_raw, t.reserved_vm_ecn,
      static_cast<int>(p.ip.ecn), static_cast<long long>(p.payload_bytes),
      p.acdc_fack, t.options.mss ? *t.options.mss : -1,
      t.options.window_scale ? *t.options.window_scale : -1,
      t.options.sack.size(),
      t.options.acdc ? static_cast<long long>(t.options.acdc->total_bytes)
                     : -1LL,
      t.options.acdc ? static_cast<long long>(t.options.acdc->marked_bytes)
                     : -1LL,
      p.telem.has_value());
  return buf;
}

class LogSink : public net::PacketSink {
 public:
  void receive(net::PacketPtr p) override { lines.push_back(describe(*p)); }
  std::vector<std::string> lines;
};

// One vSwitch with recording sinks on both sides.
struct Twin {
  sim::Simulator sim;
  AcdcVswitch vs;
  LogSink up;
  LogSink down;

  explicit Twin(const AcdcConfig& cfg) : vs(&sim, cfg) {
    vs.set_up(&up);
    vs.set_down(&down);
  }
};

// The burst loop warms flow-table lines up to 16 packets ahead of the one it
// processes; only receive_burst() callers (the datapath bench and the perf
// probes) reach it, so both directions are checked here against
// packet-at-a-time delivery. Bursts of 48 mixed packets over 48 flows run
// against a 24-entry table: inserts evict entries a later packet's
// prefetch already targeted.
TEST(AcdcVswitchTest, BurstPipelineMatchesPacketAtATime) {
  constexpr int kFlows = 48;
  constexpr std::size_t kBurst = 48;
  AcdcConfig cfg;
  cfg.mtu_bytes = 1500;  // a full-sized piggybacked ACK overflows to a FACK
  cfg.flow_table_max_entries = 24;
  Twin burst(cfg);
  Twin single(cfg);
  sim::Rng rng(testlib::test_seed(2016));

  const net::IpAddr vm = net::make_ip(10, 0, 0, 1);
  struct Flow {
    std::uint32_t vm_seq = 1000;     // next byte the VM sends
    std::uint32_t peer_seq = 50000;  // next byte the peer sends
    std::uint32_t fb_total = 0;      // feedback the peer reports
    std::uint32_t fb_marked = 0;
  };
  std::vector<Flow> flows(kFlows);
  const auto peer = [](int f) {
    return net::make_ip(10, 1, 0, static_cast<std::uint8_t>(f + 1));
  };
  const auto vm_port = [](int f) {
    return static_cast<net::TcpPort>(20000 + f);
  };

  // Egress: the VM's SYNs, data (piggybacked ACKs; 1460 B leaves no room
  // for a PACK) and pure ACKs of the peer's data.
  const auto egress_packet = [&](int f) {
    Flow& fl = flows[static_cast<std::size_t>(f)];
    auto p = net::make_packet();
    p->ip.src = vm;
    p->ip.dst = peer(f);
    p->tcp.src_port = vm_port(f);
    p->tcp.dst_port = 80;
    p->tcp.seq = fl.vm_seq;
    p->tcp.ack_seq = fl.peer_seq;
    p->tcp.window_raw = 65535;
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (kind == 0) {
      p->tcp.flags.syn = true;
      p->tcp.options.mss = 1448;
      p->tcp.options.window_scale = 7;
      fl.vm_seq += 1;
    } else {
      p->tcp.flags.ack = true;
      if (kind <= 6) {
        p->payload_bytes = kind <= 3 ? 1460 : 700;
        fl.vm_seq += static_cast<std::uint32_t>(p->payload_bytes);
      }
    }
    return p;
  };
  // Ingress: the peer's SYN-ACKs and SYNs, data with CE marks, pure ACKs
  // of the VM's data carrying PACK feedback, and FACKs.
  const auto ingress_packet = [&](int f) {
    Flow& fl = flows[static_cast<std::size_t>(f)];
    auto p = net::make_packet();
    p->ip.src = peer(f);
    p->ip.dst = vm;
    p->tcp.src_port = 80;
    p->tcp.dst_port = vm_port(f);
    p->tcp.seq = fl.peer_seq;
    p->tcp.window_raw = 65535;
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (kind <= 1) {
      p->tcp.flags.syn = true;
      p->tcp.flags.ack = kind == 0;
      p->tcp.ack_seq = fl.vm_seq;
      p->tcp.options.mss = 1448;
      p->tcp.options.window_scale = 7;
      p->tcp.flags.ece = rng.chance(0.5);
      fl.peer_seq += 1;
      return p;
    }
    p->tcp.flags.ack = true;
    p->tcp.ack_seq = fl.vm_seq - static_cast<std::uint32_t>(
                                     rng.uniform_int(0, 3) * 1460);
    if (kind <= 4) {
      p->payload_bytes = 1448;
      fl.peer_seq += 1448;
      p->ip.ecn = rng.chance(0.4) ? net::Ecn::kCe : net::Ecn::kEct0;
      return p;
    }
    fl.fb_total += static_cast<std::uint32_t>(rng.uniform_int(1, 4) * 1460);
    fl.fb_marked += static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(fl.fb_total -
                                                     fl.fb_marked)));
    p->tcp.options.acdc = net::AcdcFeedback{fl.fb_total, fl.fb_marked};
    p->acdc_fack = kind == 9;
    return p;
  };

  std::vector<net::PacketPtr> batch(kBurst);
  for (int round = 0; round < 80; ++round) {
    const bool egress = rng.chance(0.5);
    for (std::size_t i = 0; i < kBurst; ++i) {
      const int f = static_cast<int>(rng.uniform_int(0, kFlows - 1));
      batch[i] = egress ? egress_packet(f) : ingress_packet(f);
    }
    net::PacketSink& burst_in =
        egress ? burst.vs.egress_in() : burst.vs.ingress_in();
    net::PacketSink& single_in =
        egress ? single.vs.egress_in() : single.vs.ingress_in();
    for (std::size_t i = 0; i < kBurst; ++i) {
      single_in.receive(net::clone_packet(*batch[i]));
    }
    burst_in.receive_burst(batch.data(), kBurst);
    const sim::Time next = sim::microseconds(25) * (round + 1);
    burst.sim.run_until(next);
    single.sim.run_until(next);
  }

  EXPECT_EQ(burst.up.lines, single.up.lines);
  EXPECT_EQ(burst.down.lines, single.down.lines);
  const vswitch::AcdcStats& a = burst.vs.stats();
  const vswitch::AcdcStats& b = single.vs.stats();
  const auto counters = [](const vswitch::AcdcStats& s) {
    return std::vector<std::int64_t>{
        s.egress_data_packets,     s.ingress_data_packets,
        s.acks_processed,          s.packs_attached,
        s.facks_sent,              s.facks_consumed,
        s.windows_lowered,         s.policed_drops,
        s.inferred_timeouts,       s.injected_dupacks,
        s.injected_window_updates, s.rtt_samples,
        s.feedback_resyncs,        s.flow_cache_hits,
        s.flow_cache_misses};
  };
  EXPECT_EQ(counters(a), counters(b));
  const auto table = [](const vswitch::FlowTable& t) {
    const vswitch::FlowTable::Stats& s = t.stats();
    return std::vector<std::int64_t>{
        s.lookups,    s.hits,      s.inserts,  s.removals,
        s.gc_removed, s.evictions, s.rehashes,
        static_cast<std::int64_t>(t.size())};
  };
  EXPECT_EQ(table(burst.vs.flows()), table(single.vs.flows()));

  // The mix reached every path the test is about.
  EXPECT_GT(a.windows_lowered, 0);
  EXPECT_GT(a.packs_attached, 0);
  EXPECT_GT(a.facks_sent, 0);
  EXPECT_GT(a.facks_consumed, 0);
  EXPECT_GT(burst.vs.flows().stats().evictions, 100);
}

}  // namespace
}  // namespace acdc
