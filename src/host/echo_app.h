// TCP RTT probe (the sockperf analogue): a client sends a small message on a
// long-lived connection; the server application echoes every delivered byte
// back; the client records the application-level round-trip time.
#pragma once

#include <cstdint>
#include <utility>

#include "host/host.h"
#include "sim/fifo.h"
#include "stats/percentile.h"

namespace acdc::host {

class EchoApp {
 public:
  // Timers and RTT bookkeeping run on the client host's simulator.
  EchoApp(Host* client, Host* server, net::TcpPort port,
          const tcp::TcpConfig& client_config,
          const tcp::TcpConfig& server_config, sim::Time start_time,
          sim::Time interval, std::int64_t probe_bytes = 64);

  void stop_at(sim::Time t);

  // RTT samples in milliseconds.
  const stats::Sampler& rtt_ms() const { return rtt_ms_; }

 private:
  void start();
  void tick();

  Host* client_;
  Host* server_;
  net::TcpPort port_;
  tcp::TcpConfig client_config_;
  sim::Time interval_;
  std::int64_t probe_bytes_;
  bool stopped_ = false;
  bool established_ = false;
  tcp::TcpConnection* conn_ = nullptr;
  std::int64_t echoed_target_ = 0;
  sim::Fifo<std::pair<std::int64_t, sim::Time>> in_flight_;  // (target, sent)
  stats::Sampler rtt_ms_;
};

}  // namespace acdc::host
