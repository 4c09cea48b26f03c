// Layer probes for the benchmark's traced run. They time calls into each
// layer's public entry points from outside the simulator:
//
//   stack <-> [TopProbe] <-> AcdcVswitch <-> [BottomProbe] <-> NIC
//   NIC tx port -> [SwitchProbe] -> first-hop Switch::receive
//
// A span is the wall time of one forwarded call. Spans nest, because an
// ingress delivery synchronously triggers ACK egress, so each layer is
// charged its self time: the span's duration minus the spans nested inside
// it. Top egress + bottom ingress self time is the vSwitch, top ingress is
// the tenant stack (plus the app callbacks it runs), bottom egress is NIC tx.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/datapath.h"
#include "net/packet.h"

namespace acdc::perfbench {

enum Layer : int {
  kAcdcEgress = 0,
  kAcdcIngress,
  kStack,
  kNicTx,
  kSwitch,
  kLayerCount,
};

// Self time and packet count charged to each layer. One instance per probe
// owner; each is touched by one simulator thread at a time.
struct LayerTotals {
  std::int64_t self_ns[kLayerCount] = {};
  std::int64_t pkts[kLayerCount] = {};

  LayerTotals& operator+=(const LayerTotals& o) {
    for (int i = 0; i < kLayerCount; ++i) {
      self_ns[i] += o.self_ns[i];
      pkts[i] += o.pkts[i];
    }
    return *this;
  }
};

// Open spans of one thread. close() returns the closed span's self time and
// charges its full duration to the enclosing span, so the self times of a
// nesting add up to the duration of its outermost span.
class SpanStack {
 public:
  void open(std::int64_t now_ns) { frames_.push_back({now_ns, 0}); }
  std::int64_t close(std::int64_t now_ns) {
    const Frame f = frames_.back();
    frames_.pop_back();
    const std::int64_t duration = now_ns - f.start_ns;
    if (!frames_.empty()) frames_.back().child_ns += duration;
    return duration - f.child_ns;
  }
  std::size_t depth() const { return frames_.size(); }

  // The calling thread's stack (sharded runs time on several threads).
  static SpanStack& local() {
    thread_local SpanStack stack;
    return stack;
  }

 private:
  struct Frame {
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::vector<Frame> frames_;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Times `fn` as one span charged to `layer` with `pkts` packets.
template <typename Fn>
void timed(LayerTotals& totals, Layer layer, std::int64_t pkts, Fn&& fn) {
  SpanStack& stack = SpanStack::local();
  stack.open(now_ns());
  fn();
  totals.self_ns[layer] += stack.close(now_ns());
  totals.pkts[layer] += pkts;
}

// Added to a host before attach_acdc: sits between the stack and the vSwitch.
class TopProbe : public net::DuplexFilter {
 public:
  TopProbe(net::PacketSink* stack, LayerTotals* totals)
      : stack_(stack), totals_(totals) {}

 protected:
  void handle_egress(net::PacketPtr p) override {
    timed(*totals_, kAcdcEgress, 1, [&] { send_down(std::move(p)); });
  }
  void handle_ingress(net::PacketPtr p) override {
    timed(*totals_, kStack, 1, [&] { send_up(std::move(p)); });
  }
  void handle_ingress_burst(net::PacketPtr* p, std::size_t n) override {
    timed(*totals_, kStack, static_cast<std::int64_t>(n),
          [&] { stack_->receive_burst(p, n); });
  }

 private:
  net::PacketSink* stack_;
  LayerTotals* totals_;
};

// Added to a host after attach_acdc: sits between the vSwitch and the NIC.
// NIC rx bursts go to the vSwitch intact, so its prefetch pipeline runs as
// it does untraced (the DuplexFilter default would unroll them).
class BottomProbe : public net::DuplexFilter {
 public:
  BottomProbe(net::DuplexFilter* vswitch, LayerTotals* totals)
      : vswitch_(vswitch), totals_(totals) {}

 protected:
  void handle_egress(net::PacketPtr p) override {
    timed(*totals_, kNicTx, 1, [&] { send_down(std::move(p)); });
  }
  void handle_ingress(net::PacketPtr p) override {
    timed(*totals_, kAcdcIngress, 1,
          [&] { vswitch_->ingress_in().receive(std::move(p)); });
  }
  void handle_ingress_burst(net::PacketPtr* p, std::size_t n) override {
    timed(*totals_, kAcdcIngress, static_cast<std::int64_t>(n),
          [&] { vswitch_->ingress_in().receive_burst(p, n); });
  }

 private:
  net::DuplexFilter* vswitch_;
  LayerTotals* totals_;
};

// Installed with Port::set_peer on a host NIC's tx port: times the
// first-hop switch's receive of every packet the host sends.
class SwitchProbe : public net::PacketSink {
 public:
  SwitchProbe(net::PacketSink* sw, LayerTotals* totals)
      : sw_(sw), totals_(totals) {}

  void receive(net::PacketPtr p) override {
    timed(*totals_, kSwitch, 1, [&] { sw_->receive(std::move(p)); });
  }

 private:
  net::PacketSink* sw_;
  LayerTotals* totals_;
};

}  // namespace acdc::perfbench
