#include "net/token_bucket.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"

namespace acdc::net {

TokenBucketShaper::TokenBucketShaper(sim::Simulator* sim, sim::Rate rate,
                                     std::int64_t burst_bytes,
                                     std::int64_t backlog_limit_bytes)
    : sim_(sim),
      rate_(rate),
      burst_bytes_(burst_bytes),
      backlog_limit_bytes_(backlog_limit_bytes),
      tokens_bytes_(static_cast<double>(burst_bytes)) {
  ACDC_CHECK(rate_ > 0, "token bucket: rate must be positive (rate=%lld bps)",
             static_cast<long long>(rate_));
  ACDC_CHECK(burst_bytes_ > 0,
             "token bucket: burst_bytes must be positive (burst_bytes=%lld)",
             static_cast<long long>(burst_bytes_));
}

void TokenBucketShaper::refill() {
  const sim::Time now = sim_->now();
  const double elapsed_s = sim::to_seconds(now - last_refill_);
  tokens_bytes_ = std::min(
      static_cast<double>(burst_bytes_),
      tokens_bytes_ + elapsed_s * static_cast<double>(rate_) / 8.0);
  last_refill_ = now;
}

void TokenBucketShaper::handle_egress(PacketPtr packet) {
  const std::int64_t bytes = packet->wire_bytes();
  if (backlog_limit_bytes_ > 0 &&
      backlog_bytes_ + bytes > backlog_limit_bytes_) {
    ++dropped_packets_;  // qdisc overflow
    return;
  }
  backlog_bytes_ += bytes;
  backlog_.push_back(Queued{std::move(packet), bytes});
  drain();
}

void TokenBucketShaper::drain() {
  refill();
  while (!backlog_.empty()) {
    const std::int64_t need = backlog_.front().wire_bytes;
    if (tokens_bytes_ < static_cast<double>(need)) break;
    tokens_bytes_ -= static_cast<double>(need);
    PacketPtr p = std::move(backlog_.front().packet);
    backlog_.pop_front();
    backlog_bytes_ -= need;
    send_down(std::move(p));
  }
  if (!backlog_.empty() && !drain_scheduled_) {
    const double deficit =
        static_cast<double>(backlog_.front().wire_bytes) - tokens_bytes_;
    const sim::Time wait = std::max<sim::Time>(
        1, static_cast<sim::Time>(deficit * 8.0 * 1e9 /
                                  static_cast<double>(rate_)));
    drain_scheduled_ = true;
    sim_->schedule(wait, [this] {
      drain_scheduled_ = false;
      drain();
    });
  }
}

}  // namespace acdc::net
