// Message application: sends fixed-size messages on a schedule over one
// long-lived connection and records per-message completion times (§5.2's
// "simple TCP application sends messages of specified sizes to measure
// FCTs"). Used for the mice traffic in the stride/shuffle workloads and as
// the building block of the trace-driven workloads.
#pragma once

#include <cstdint>
#include <functional>

#include "host/host.h"
#include "sim/fifo.h"
#include "stats/fct_collector.h"

namespace acdc::host {

class MessageApp {
 public:
  // Periodic mode: sends `message_bytes` every `interval` starting at
  // `start_time` (messages queue even if earlier ones are unfinished, as in
  // the paper's 16KB-every-100ms mice). Timers run on the sender host's
  // simulator.
  MessageApp(Host* sender, Host* receiver, net::TcpPort port,
             const tcp::TcpConfig& sender_config,
             const tcp::TcpConfig& receiver_config, sim::Time start_time,
             sim::Time interval, std::int64_t message_bytes,
             stats::FctCollector* collector);

  // On-demand mode helper: send one message now (usable once established);
  // `on_complete` fires when the message is fully ACKed.
  void send_message(std::int64_t bytes,
                    std::function<void(sim::Time fct)> on_complete = {});

  bool established() const { return established_; }
  std::int64_t messages_sent() const { return messages_sent_; }
  std::int64_t messages_completed() const { return messages_completed_; }
  std::int64_t delivered_bytes() const { return delivered_bytes_; }
  tcp::TcpConnection* connection() { return conn_; }
  // Receiver-side listen port (dst_port of data packets); lets per-flow
  // vSwitch policies target this app with a dst-port rule.
  net::TcpPort port() const { return port_; }

  std::function<void()> on_established;

 private:
  struct Outstanding {
    std::int64_t target_acked_bytes = 0;
    std::int64_t size = 0;
    sim::Time started = 0;
    std::function<void(sim::Time)> on_complete;
  };

  void start();
  void tick();
  void handle_acked(std::int64_t acked_total);

  Host* sender_;
  Host* receiver_;
  net::TcpPort port_;
  tcp::TcpConfig sender_config_;
  sim::Time interval_;
  std::int64_t message_bytes_;
  stats::FctCollector* collector_;
  bool periodic_ = false;
  bool established_ = false;
  tcp::TcpConnection* conn_ = nullptr;
  std::int64_t written_total_ = 0;
  sim::Fifo<Outstanding> outstanding_;
  std::int64_t messages_sent_ = 0;
  std::int64_t messages_completed_ = 0;
  std::int64_t delivered_bytes_ = 0;  // cumulative acked payload
};

}  // namespace acdc::host
