#include "host/echo_app.h"

namespace acdc::host {

EchoApp::EchoApp(Host* client, Host* server, net::TcpPort port,
                 const tcp::TcpConfig& client_config,
                 const tcp::TcpConfig& server_config, sim::Time start_time,
                 sim::Time interval, std::int64_t probe_bytes)
    : client_(client),
      server_(server),
      port_(port),
      client_config_(client_config),
      interval_(interval),
      probe_bytes_(probe_bytes) {
  server_->listen(port_, server_config, [](tcp::TcpConnection* conn) {
    // Echo server: write back every delivered byte.
    conn->on_deliver = [conn, echoed = std::int64_t{0}](
                           std::int64_t total) mutable {
      conn->send(total - echoed);
      echoed = total;
    };
  });
  client_->sim()->schedule_at(start_time, [this] { start(); });
}

void EchoApp::start() {
  conn_ = client_->connect(server_->ip(), port_, client_config_);
  conn_->on_established = [this] {
    established_ = true;
    tick();
  };
  conn_->on_deliver = [this](std::int64_t total) {
    while (!in_flight_.empty() && total >= in_flight_.front().first) {
      rtt_ms_.add(sim::to_milliseconds(client_->sim()->now() -
                                       in_flight_.front().second));
      in_flight_.pop_front();
    }
  };
}

void EchoApp::tick() {
  if (stopped_) return;
  // Bound outstanding probes so a stalled path does not pile up unbounded
  // echo traffic — but keep the bound generous enough that loss bursts
  // (e.g. a CUBIC-saturated drop-tail port) cannot silence the probe and
  // bias the RTT distribution toward idle periods.
  if (in_flight_.size() < 32) {
    echoed_target_ += probe_bytes_;
    conn_->send(probe_bytes_);
    in_flight_.emplace_back(echoed_target_, client_->sim()->now());
  }
  client_->sim()->schedule(interval_, [this] { tick(); });
}

void EchoApp::stop_at(sim::Time t) {
  client_->sim()->schedule_at(t, [this] { stopped_ = true; });
}

}  // namespace acdc::host
