#include "host/message_app.h"

#include <utility>

#include "sim/check.h"

namespace acdc::host {

MessageApp::MessageApp(Host* sender, Host* receiver, net::TcpPort port,
                       const tcp::TcpConfig& sender_config,
                       const tcp::TcpConfig& receiver_config,
                       sim::Time start_time, sim::Time interval,
                       std::int64_t message_bytes,
                       stats::FctCollector* collector)
    : sender_(sender),
      receiver_(receiver),
      port_(port),
      sender_config_(sender_config),
      interval_(interval),
      message_bytes_(message_bytes),
      collector_(collector),
      periodic_(interval > 0) {
  receiver_->listen(port_, receiver_config);
  sender_->sim()->schedule_at(start_time, [this] { start(); });
}

void MessageApp::start() {
  conn_ = sender_->connect(receiver_->ip(), port_, sender_config_);
  conn_->on_established = [this] {
    established_ = true;
    if (on_established) on_established();
    if (periodic_) tick();
  };
  conn_->on_acked = [this](std::int64_t total) { handle_acked(total); };
}

void MessageApp::tick() {
  send_message(message_bytes_);
  sender_->sim()->schedule(interval_, [this] { tick(); });
}

void MessageApp::send_message(std::int64_t bytes,
                              std::function<void(sim::Time)> on_complete) {
  ACDC_CHECK(established_,
             "message app on port %u: send_message before the connection "
             "is established",
             static_cast<unsigned>(port_));
  ACDC_CHECK(bytes > 0,
             "message app on port %u: bytes must be positive (bytes=%lld)",
             static_cast<unsigned>(port_), static_cast<long long>(bytes));
  conn_->send(bytes);
  written_total_ += bytes;
  ++messages_sent_;
  outstanding_.push_back(Outstanding{written_total_, bytes,
                                     sender_->sim()->now(),
                                     std::move(on_complete)});
}

void MessageApp::handle_acked(std::int64_t acked_total) {
  if (acked_total > delivered_bytes_) delivered_bytes_ = acked_total;
  while (!outstanding_.empty() &&
         acked_total >= outstanding_.front().target_acked_bytes) {
    Outstanding done = std::move(outstanding_.front());
    outstanding_.pop_front();
    const sim::Time fct = sender_->sim()->now() - done.started;
    ++messages_completed_;
    if (collector_ != nullptr) collector_->record(done.size, fct);
    if (done.on_complete) done.on_complete(fct);
  }
}

}  // namespace acdc::host
