// The transmitter's same-tick behaviour, pinned against the algorithm it
// replaced.
//
// net::Port reserves its transmit-complete event (sim::ReservedEvent) and
// schedules it only when a packet waits. ReferencePort below is the
// always-scheduled form: every transmission start schedules its
// completion, which frees the transmitter when it finds the queue empty.
// Both run the same seeded script, whose sends come from keyed events,
// unkeyed events scheduled before and after the transmission start, a
// DeadlineTimer, the drain callback and the peer's delivery events, many
// of them on the completion tick itself, next to third-party events that
// only log what they see. The logs must match line for line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/fault.h"
#include "net/packet.h"
#include "net/port.h"
#include "net/queue.h"
#include "sim/deadline_timer.h"
#include "sim/reserved_event.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "testlib/seed.h"

namespace acdc::net {
namespace {

constexpr sim::Rate kRate = sim::gigabits_per_second(1);

// Port's transmitter before reserved completions, kept to check the new
// one against.
class ReferencePort : public PacketSink {
 public:
  ReferencePort(sim::Simulator* sim, std::string /*name*/, sim::Rate rate,
                sim::Time propagation_delay, std::int64_t queue_bytes)
      : sim_(sim),
        rate_(rate),
        propagation_delay_(propagation_delay),
        queue_(queue_bytes) {}

  void set_peer(PacketSink* peer) { peer_ = peer; }
  void set_drain_callback(std::function<void()> fn) {
    on_drain_ = std::move(fn);
  }
  void receive(PacketPtr packet) override { send(std::move(packet)); }
  void send(PacketPtr packet) {
    packet->enqueued_at = sim_->now();
    if (!queue_.enqueue(std::move(packet))) return;
    if (!transmitting_) start_transmission();
  }

  Queue& queue() { return queue_; }
  std::int64_t transmitted_packets() const { return transmitted_packets_; }
  std::int64_t transmitted_bytes() const { return transmitted_bytes_; }

 private:
  void start_transmission() {
    PacketPtr packet = queue_.dequeue();
    if (packet == nullptr) {
      transmitting_ = false;
      return;
    }
    transmitting_ = true;
    const sim::Time tx = sim::transmission_time(packet->wire_bytes(), rate_);
    ++transmitted_packets_;
    transmitted_bytes_ += packet->wire_bytes();
    const std::uint64_t key = Port::delivery_tie_key(*packet);
    PacketSink* peer = peer_;
    Packet* raw = packet.release();
    sim_->schedule_keyed(tx + propagation_delay_, key,
                         [peer, raw] { peer->receive(PacketPtr(raw)); });
    sim_->schedule(tx, [this] { start_transmission(); });
    if (on_drain_) on_drain_();
  }

  sim::Simulator* sim_;
  sim::Rate rate_;
  sim::Time propagation_delay_;
  Queue queue_;
  PacketSink* peer_ = nullptr;
  std::function<void()> on_drain_;
  bool transmitting_ = false;
  std::int64_t transmitted_packets_ = 0;
  std::int64_t transmitted_bytes_ = 0;
};

// Payload sizes the script draws from; 0 is a pure ACK.
constexpr std::int64_t kPayloads[] = {0, 200, 1000};

sim::Time tx_time(std::int64_t payload) {
  Packet p;
  p.payload_bytes = payload;
  return sim::transmission_time(p.wire_bytes(), kRate);
}

// One seeded run: the port under test, its peer (this), and a script that
// aims its sends and probes at the port's completion ticks. Every callback
// draws from one RNG, so two runs draw alike exactly as long as their logs
// agree.
template <typename PortT>
class Harness : public PacketSink {
 public:
  explicit Harness(std::uint64_t seed)
      : rng_(seed),
        propagation_delay_(rng_.chance(0.5) ? 0 : tx_time(draw_payload())),
        queue_bytes_(rng_.uniform_int(3, 8) * 1078),
        port_(&sim_, "port", kRate, propagation_delay_, queue_bytes_),
        timer_(&sim_, this, &Harness::on_timer) {
    port_.set_peer(this);
    port_.set_drain_callback([this] { on_drain(); });
  }

  std::vector<std::string> run() {
    // Background load: unkeyed ticks at random times, each of which first
    // aims a probe at the completion its own send would have if the port
    // were idle, then sends.
    for (int i = 0; i < 60; ++i) {
      const sim::Time at = rng_.uniform_int(0, 400'000);
      sim_.schedule_at(at, [this] {
        const std::int64_t payload = draw_payload();
        probe_unkeyed(sim_.now() + tx_time(payload), "pre-start");
        send(payload, "tick");
      });
    }
    // Sends from outside any event, between runs, next to the clock's
    // end-of-tick position.
    for (sim::Time t = 50'000; t <= 400'000; t += 50'000) {
      sim_.run_until(t);
      line("checkpoint");
      if (rng_.chance(0.7)) send(draw_payload(), "outside");
    }
    sim_.run_until(sim::milliseconds(5));
    line("end");
    return std::move(log_);
  }

  // The peer: deliveries are keyed events; some of them send again.
  void receive(PacketPtr packet) override {
    line("deliver uid=" + std::to_string(packet->uid));
    if (rng_.chance(0.4)) send(draw_payload(), "from-delivery");
  }

 private:
  std::int64_t draw_payload() { return kPayloads[rng_.uniform_int(0, 2)]; }

  void line(const std::string& what) {
    log_.push_back(what + " t=" + std::to_string(sim_.now()) +
                   " txp=" + std::to_string(port_.transmitted_packets()) +
                   " q=" + std::to_string(port_.queue().packet_length()));
  }

  void send(std::int64_t payload, const char* why) {
    if (sent_ >= kMaxSends) return;
    auto p = make_packet();
    p->uid = ++sent_;
    p->ip.src = make_ip(10, 0, 0, 1);
    p->ip.dst = make_ip(10, 0, 0, 2);
    p->tcp.seq = static_cast<std::uint32_t>(sent_);
    p->payload_bytes = payload;
    line(std::string("send ") + why + " uid=" + std::to_string(sent_));
    port_.send(std::move(p));
  }

  // A third-party unkeyed event at `at` that only logs.
  void probe_unkeyed(sim::Time at, const char* tag) {
    const int id = ++probes_;
    sim_.schedule_at(at, [this, id, tag] {
      line(std::string("probe ") + tag + " #" + std::to_string(id));
    });
  }

  void on_drain() {
    line("drain");
    const std::int64_t bytes = port_.transmitted_bytes() - last_bytes_;
    last_bytes_ = port_.transmitted_bytes();
    const sim::Time tx = sim::transmission_time(bytes, kRate);
    const sim::Time done = sim_.now() + tx;
    if (rng_.chance(0.3)) send(draw_payload(), "from-drain");
    if (rng_.chance(0.5)) {
      // Keyed events on the completion tick sort before the completion.
      const std::uint64_t key = rng_.engine()();
      const bool sends = rng_.chance(0.7);
      sim_.schedule_at_keyed(done, key, [this, sends] {
        line("keyed");
        if (sends) send(draw_payload(), "keyed");
      });
    }
    if (rng_.chance(0.5)) {
      // Scheduled after the transmission start: sorts after the completion.
      const bool sends = rng_.chance(0.5);
      sim_.schedule_at(done, [this, sends] {
        line("unkeyed-after");
        if (sends) send(draw_payload(), "unkeyed-after");
      });
    }
    if (rng_.chance(0.3)) timer_.arm(tx);
    if (rng_.chance(0.5)) probe_unkeyed(done, "post-start");
    // Probes at every completion tick the next transmission could have,
    // scheduled before that transmission starts.
    if (rng_.chance(0.5)) {
      for (const std::int64_t payload : kPayloads) {
        probe_unkeyed(done + tx_time(payload), "next-start");
      }
    }
  }

  static void on_timer(void* self) {
    auto* h = static_cast<Harness*>(self);
    h->line("timer");
    h->send(h->draw_payload(), "timer");
  }

  static constexpr int kMaxSends = 400;

  sim::Simulator sim_;
  sim::Rng rng_;
  sim::Time propagation_delay_;
  std::int64_t queue_bytes_;
  PortT port_;
  sim::DeadlineTimer timer_;
  std::vector<std::string> log_;
  std::int64_t last_bytes_ = 0;
  int sent_ = 0;
  int probes_ = 0;
};

TEST(PortTest, SameTickOrderMatchesAlwaysScheduledCompletion) {
  const std::uint64_t base = testlib::test_seed(1400);
  for (std::uint64_t seed = base; seed < base + 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<std::string> want = Harness<ReferencePort>(seed).run();
    const std::vector<std::string> got = Harness<Port>(seed).run();
    ASSERT_GT(want.size(), 500u);
    const std::size_t n = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "first difference at line " << i;
    }
    ASSERT_EQ(got.size(), want.size());
  }
}

// The position an idle port compares against: a reservation has passed
// once an event at or after it ran, and run_until / advance_to count every
// event scheduled so far at the deadline's tick as run.
TEST(ReservedEventTest, PassesAtTheReservedPosition) {
  sim::Simulator sim;
  sim::ReservedEvent r(&sim);
  EXPECT_TRUE(r.passed()) << "nothing reserved";
  EXPECT_EQ(r.at(), sim::kNoTime);

  std::vector<std::string> seen;
  const auto probe = [&](const char* tag) {
    seen.push_back(std::string(tag) + (r.passed() ? " passed" : " pending"));
  };
  sim.schedule_at(100, [&] { probe("unkeyed-before"); });
  r.reserve(100);
  EXPECT_EQ(r.at(), 100);
  EXPECT_FALSE(r.passed());
  sim.schedule_at(100, [&] { probe("unkeyed-after"); });
  sim.schedule_at_keyed(100, 7, [&] { probe("keyed"); });
  sim.run_until(99);
  EXPECT_FALSE(r.passed());
  sim.run_until(100);
  EXPECT_EQ(seen, (std::vector<std::string>{"keyed pending",
                                            "unkeyed-before pending",
                                            "unkeyed-after passed"}));
  EXPECT_TRUE(r.passed());

  // After run_until(t) every reservation taken so far at t has passed, but
  // a fresh one at t (zero delay) has not: an event scheduled now still
  // runs.
  sim::ReservedEvent last(&sim);
  sim.schedule(50, [] {});
  last.reserve(50);
  sim.run_until(150);
  EXPECT_TRUE(last.passed()) << "the latest seq at the deadline's tick";
  last.reserve(0);
  EXPECT_FALSE(last.passed());
  sim.run_until(150);
  EXPECT_TRUE(last.passed());

  // advance_to (end of a parallel round) pins the same position.
  last.reserve(50);
  sim.advance_to(199);
  EXPECT_FALSE(last.passed());
  sim.advance_to(200);
  EXPECT_TRUE(last.passed());
}

// An event keyed by its own action, as a port's local delivery is.
struct SelfKeyedProbe {
  std::function<void(const char*)>* probe;
  void operator()() const { (*probe)("self-keyed"); }
  std::uint64_t tie_key() const { return 9; }
};

// No other keyed event shares the tick, so the self-keyed event's key is
// never computed; it still runs before the unkeyed events of its tick and
// leaves the tick's position where it was, as a keyed event does.
TEST(ReservedEventTest, SelfKeyedEventRunsBeforeTheReservedPosition) {
  sim::Simulator sim;
  sim::ReservedEvent r(&sim);
  std::vector<std::string> seen;
  std::function<void(const char*)> probe = [&](const char* tag) {
    seen.push_back(std::string(tag) + (r.passed() ? " passed" : " pending"));
  };
  r.reserve(100);
  sim.schedule_keyed(100, SelfKeyedProbe{&probe});
  sim.schedule_at(100, [&] { probe("unkeyed-after"); });
  sim.run_until(100);
  EXPECT_EQ(seen, (std::vector<std::string>{"self-keyed pending",
                                            "unkeyed-after passed"}));
}

TEST(ReservedEventTest, ScheduledEventRunsAtItsReservedPosition) {
  sim::Simulator sim;
  sim::ReservedEvent r(&sim);
  std::vector<std::string> order;
  sim.schedule_at(40, [&] { order.push_back("before"); });
  r.reserve(40);
  sim.schedule_at(40, [&] { order.push_back("after"); });
  sim.schedule(10, [&] {
    r.schedule([&] {
      order.push_back(r.passed() ? "reserved passed" : "reserved pending");
    });
    r.schedule([&] { order.push_back("scheduled twice"); });
  });
  sim.schedule_at_keyed(40, 1, [&] { order.push_back("keyed"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"keyed", "before",
                                             "reserved passed", "after"}));
  EXPECT_EQ(sim.executed_events(), 5u);
}

// Port preconditions hold in every build, NDEBUG included.
TEST(PortDeathTest, ZeroRateDiesAtConstruction) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  EXPECT_DEATH(Port(&sim, "dead", 0, 0, 1),
               "port dead: link rate must be positive, rate=0");
}

TEST(PortDeathTest, ReconfiguringWhileTransmittingDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  sim::Simulator other;
  Port port(&sim, "busy", kRate, 0, 10'000);
  port.send(make_packet());
  const std::string until = std::to_string(tx_time(0));
  EXPECT_DEATH(port.set_propagation_delay(5),
               "port busy: set_propagation_delay while transmitting \\(busy "
               "until " + until);
  EXPECT_DEATH(port.rebind_simulator(&other),
               "port busy: rebind_simulator while transmitting \\(busy until " +
                   until);
  sim.run();
  port.set_propagation_delay(5);
  port.rebind_simulator(&other);
  EXPECT_EQ(port.propagation_delay(), 5);
}

TEST(FaultInjectorDeathTest, RebindWhileHoldingDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  sim::Simulator other;
  FaultConfig faults;
  faults.reorder_p = 1.0;  // hold the first packet, behind a hold timer
  FaultInjector injector(&sim, sim::Rng(1), faults);
  injector.receive(make_packet());
  EXPECT_DEATH(injector.rebind_simulator(&other),
               "fault injector: rebind_simulator while holding a packet");
  sim.run();  // the hold timer releases it
  injector.rebind_simulator(&other);
}

}  // namespace
}  // namespace acdc::net
