// Duplex packet filters, the building block of a host's datapath.
//
// A host's datapath is a chain of DuplexFilters between the TCP stack(s) and
// the NIC:   stack <-> [filter ... filter] <-> NIC.
// The AC/DC vSwitch and the token-bucket shaper are DuplexFilters; this is
// the analogue of packets traversing OVS's datapath in the paper.
#pragma once

#include <utility>

#include "net/packet.h"

namespace acdc::net {

class DuplexFilter {
 public:
  virtual ~DuplexFilter() = default;

  void set_down(PacketSink* down) { down_ = down; }
  void set_up(PacketSink* up) { up_ = up; }

  // Entry points: egress_in accepts packets travelling stack -> NIC,
  // ingress_in accepts packets travelling NIC -> stack.
  PacketSink& egress_in() { return egress_adapter_; }
  PacketSink& ingress_in() { return ingress_adapter_; }

 protected:
  virtual void handle_egress(PacketPtr packet) { send_down(std::move(packet)); }
  virtual void handle_ingress(PacketPtr packet) { send_up(std::move(packet)); }

  // Burst analogues, reached through egress_in()/ingress_in() when the
  // caller hands over a batch (receive_burst). The defaults unroll to the
  // per-packet handlers in order, so overriding is purely an optimization —
  // never a semantic change.
  virtual void handle_egress_burst(PacketPtr* packets, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      handle_egress(std::move(packets[i]));
    }
  }
  virtual void handle_ingress_burst(PacketPtr* packets, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      handle_ingress(std::move(packets[i]));
    }
  }

  void send_down(PacketPtr packet) {
    if (down_ != nullptr) down_->receive(std::move(packet));
  }
  void send_up(PacketPtr packet) {
    if (up_ != nullptr) up_->receive(std::move(packet));
  }

 private:
  class Adapter : public PacketSink {
   public:
    Adapter(DuplexFilter* owner, bool egress) : owner_(owner), egress_(egress) {}
    void receive(PacketPtr packet) override {
      if (egress_) {
        owner_->handle_egress(std::move(packet));
      } else {
        owner_->handle_ingress(std::move(packet));
      }
    }
    void receive_burst(PacketPtr* packets, std::size_t count) override {
      if (egress_) {
        owner_->handle_egress_burst(packets, count);
      } else {
        owner_->handle_ingress_burst(packets, count);
      }
    }

   private:
    DuplexFilter* owner_;
    bool egress_;
  };

  PacketSink* down_ = nullptr;
  PacketSink* up_ = nullptr;
  Adapter egress_adapter_{this, true};
  Adapter ingress_adapter_{this, false};
};

}  // namespace acdc::net
