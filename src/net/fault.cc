#include "net/fault.h"

#include <utility>

#include "net/wire.h"

namespace acdc::net {

// Trivially copyable, like a port's delivery; discarded unfired, it
// returns the packet to the pool.
struct FaultInjector::Jittered {
  FaultInjector* injector;
  Packet* packet;

  void operator()() const { injector->forward(PacketPtr(packet)); }
  void drop() const { PacketDeleter{}(packet); }
};

FaultInjector::FaultInjector(sim::Simulator* sim, sim::Rng rng,
                             const FaultConfig& config)
    : sim_(sim), rng_(std::move(rng)), config_(config) {}

void FaultInjector::receive(PacketPtr packet) {
  if (config_.codec_check_p > 0 && rng_.chance(config_.codec_check_p)) {
    codec_check(*packet);
  }
  if (config_.drop_p > 0 && rng_.chance(config_.drop_p)) {
    ++stats_.dropped;
    flush_held();
    return;
  }
  if (config_.dup_p > 0 && rng_.chance(config_.dup_p)) {
    ++stats_.duplicated;
    deliver(clone_packet(*packet));
  }
  if (config_.reorder_p > 0 && held_ == nullptr &&
      rng_.chance(config_.reorder_p)) {
    // Hold this packet and release it behind the next arrival; a timer
    // bounds the hold so a held packet on an idling link still gets out.
    ++stats_.reordered;
    held_ = std::move(packet);
    hold_timer_ = sim_->schedule(config_.reorder_hold, [this] {
      hold_timer_ = sim::kInvalidEventId;
      flush_held();
    });
    return;
  }
  deliver(std::move(packet));
  flush_held();
}

void FaultInjector::deliver(PacketPtr packet) {
  if (config_.jitter_p > 0 && config_.jitter_max > 0 &&
      rng_.chance(config_.jitter_p)) {
    ++stats_.jittered;
    const sim::Time delay = static_cast<sim::Time>(
        rng_.uniform_int(1, config_.jitter_max));
    sim_->schedule(delay, Jittered{this, packet.release()});
    return;
  }
  forward(std::move(packet));
}

void FaultInjector::forward(PacketPtr packet) {
  ++stats_.forwarded;
  if (target_ != nullptr) target_->receive(std::move(packet));
}

void FaultInjector::flush_held() {
  if (held_ == nullptr) return;
  if (hold_timer_ != sim::kInvalidEventId) {
    sim_->cancel(hold_timer_);
    hold_timer_ = sim::kInvalidEventId;
  }
  deliver(std::move(held_));
}

void FaultInjector::codec_check(const Packet& packet) {
  ++stats_.codec_checked;
  const std::vector<std::uint8_t> bytes = wire::serialize(packet);
  const auto parsed = wire::parse(bytes);
  if (!parsed || !parsed->ip_checksum_ok || !parsed->tcp_checksum_ok) {
    ++stats_.codec_failures;
    return;
  }
  const Packet& p = parsed->packet;
  const bool same = p.ip.src == packet.ip.src && p.ip.dst == packet.ip.dst &&
                    p.ip.ecn == packet.ip.ecn &&
                    p.tcp.src_port == packet.tcp.src_port &&
                    p.tcp.dst_port == packet.tcp.dst_port &&
                    p.tcp.seq == packet.tcp.seq &&
                    p.tcp.ack_seq == packet.tcp.ack_seq &&
                    p.tcp.flags == packet.tcp.flags &&
                    p.tcp.window_raw == packet.tcp.window_raw &&
                    p.tcp.options == packet.tcp.options &&
                    p.payload_bytes == packet.payload_bytes;
  if (!same) ++stats_.codec_failures;
}

}  // namespace acdc::net
