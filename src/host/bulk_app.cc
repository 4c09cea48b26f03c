#include "host/bulk_app.h"

#include "sim/check.h"

namespace acdc::host {

BulkApp::BulkApp(Host* sender, Host* receiver, net::TcpPort port,
                 tcp::TcpConfig sender_config, tcp::TcpConfig receiver_config,
                 sim::Time start_time, std::int64_t total_bytes)
    : sender_(sender),
      receiver_(receiver),
      port_(port),
      sender_config_(std::move(sender_config)),
      total_bytes_(total_bytes),
      start_time_(start_time) {
  // Delivery accounting runs on the receiver's shard; it must read that
  // shard's clock.
  receiver_->listen(port_, receiver_config,
                    [this](tcp::TcpConnection* conn) {
                      server_conn_ = conn;
                      conn->on_deliver = [this](std::int64_t total) {
                        deliveries_.add(receiver_->sim()->now(),
                                        static_cast<double>(
                                            total - last_delivered_));
                        last_delivered_ = total;
                      };
                    });
  sender_->sim()->schedule_at(start_time, [this] { start(); });
}

void BulkApp::start() {
  conn_ = sender_->connect(receiver_->ip(), port_, sender_config_);
  conn_->on_established = [this] {
    if (total_bytes_ > 0) {
      conn_->send(total_bytes_);
    } else {
      refill();
    }
  };
  conn_->on_acked = [this](std::int64_t acked_total) {
    if (total_bytes_ > 0) {
      if (!completed_ && acked_total >= total_bytes_) {
        completed_ = true;
        completion_time_ = sender_->sim()->now();
      }
    } else {
      refill();
    }
  };
}

void BulkApp::refill() {
  if (stopped_) return;
  while (conn_->queued_unsent_bytes() < kLowWater) {
    conn_->send(kChunkBytes);
  }
}

void BulkApp::stop_at(sim::Time t) {
  sender_->sim()->schedule_at(t, [this] { stopped_ = true; });
}

std::int64_t BulkApp::delivered_bytes() const {
  return server_conn_ != nullptr ? server_conn_->delivered_bytes() : 0;
}

double BulkApp::goodput_bps(sim::Time from, sim::Time to) const {
  ACDC_CHECK(to > from,
             "bulk app on port %u: goodput window must be non-empty "
             "(from=%lld, to=%lld)",
             static_cast<unsigned>(port_), static_cast<long long>(from),
             static_cast<long long>(to));
  const double bytes = deliveries_.sum_range(from, to);
  return bytes * 8.0 / sim::to_seconds(to - from);
}

}  // namespace acdc::host
