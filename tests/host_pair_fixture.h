// The two-host rig shared by the TCP and robustness tests: hosts "A"
// (10.0.0.1) and "B" (10.0.0.2) wired NIC-to-NIC over a 10G, ~4us-RTT
// point-to-point link, optionally with one impairment filter in A's
// datapath.
#pragma once

#include <memory>

#include "host/host.h"
#include "net/datapath.h"
#include "sim/simulator.h"

namespace acdc {

struct HostPair {
  sim::Simulator sim;
  std::unique_ptr<host::Host> a;
  std::unique_ptr<host::Host> b;

  explicit HostPair(net::DuplexFilter* a_filter = nullptr) {
    host::HostConfig hc;
    // This switchless link has no fabric buffer; absorb slow-start bursts
    // in the NIC so protocol tests see a loss-free path unless a filter
    // injects loss deliberately.
    hc.nic_queue_bytes = 8 * 1024 * 1024;
    a = std::make_unique<host::Host>(&sim, "A", net::make_ip(10, 0, 0, 1), hc);
    b = std::make_unique<host::Host>(&sim, "B", net::make_ip(10, 0, 0, 2), hc);
    if (a_filter != nullptr) a->add_filter(a_filter);
    a->nic().tx_port().set_peer(&b->nic());
    b->nic().tx_port().set_peer(&a->nic());
  }
};

}  // namespace acdc
