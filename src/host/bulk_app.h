// Bulk transfer application (the iperf analogue): a long-lived or
// fixed-size flow from one host to another, with receiver-side throughput
// accounting and sender-side FCT measurement.
#pragma once

#include <cstdint>
#include <string>

#include "host/host.h"
#include "stats/timeseries.h"

namespace acdc::host {

class BulkApp {
 public:
  // total_bytes == 0 -> unlimited (long-lived flow). The app installs a
  // listener for `port` on `receiver`; use a distinct port per app. Sender
  // and receiver sides each run on their own host's simulator, which
  // differ when the two live on different shards of a partitioned
  // scenario.
  BulkApp(Host* sender, Host* receiver, net::TcpPort port,
          tcp::TcpConfig sender_config, tcp::TcpConfig receiver_config,
          sim::Time start_time, std::int64_t total_bytes = 0);

  // Stops refilling an unlimited flow at time t (the flow drains and idles).
  void stop_at(sim::Time t);

  // Receiver-side delivered application bytes.
  std::int64_t delivered_bytes() const;
  // Average goodput over [from, to], from the per-interval deliveries.
  double goodput_bps(sim::Time from, sim::Time to) const;

  // Per-interval delivered bytes for timeseries plots.
  const stats::Timeseries& deliveries() const { return deliveries_; }

  bool completed() const { return completed_; }
  sim::Time completion_time() const { return completion_time_; }
  sim::Time start_time() const { return start_time_; }
  // Receiver-side listen port; data-direction packets carry it as dst_port,
  // so per-flow vSwitch policies can target this app with a dst-port rule.
  net::TcpPort port() const { return port_; }

  tcp::TcpConnection* sender_connection() { return conn_; }

 private:
  void start();
  void refill();

  static constexpr std::int64_t kChunkBytes = 1 << 20;
  static constexpr std::int64_t kLowWater = 2 * kChunkBytes;

  Host* sender_;
  Host* receiver_;
  net::TcpPort port_;
  tcp::TcpConfig sender_config_;
  std::int64_t total_bytes_;
  sim::Time start_time_;
  bool stopped_ = false;
  bool completed_ = false;
  sim::Time completion_time_ = sim::kNoTime;
  tcp::TcpConnection* conn_ = nullptr;
  tcp::TcpConnection* server_conn_ = nullptr;
  stats::Timeseries deliveries_{sim::milliseconds(100)};
  std::int64_t last_delivered_ = 0;
};

}  // namespace acdc::host
