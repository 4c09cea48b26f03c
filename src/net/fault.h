// Wire-level fault injection for conformance testing: an interposer that
// sits between a Port and its peer and randomly drops, duplicates,
// reorders or delays packets in flight. All randomness comes from a
// dedicated split RNG stream, so toggling one fault class (or one link's
// injector) never perturbs the rest of a seeded scenario — the property
// the fuzzer's shrinker depends on.
//
// The injector can also round-trip a sample of live packets through the
// net/wire codec (serialize -> parse -> compare) so the RFC-layout
// encoder/decoder and its checksums are exercised by real datapath
// traffic, not just hand-built packets.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "sim/check.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace acdc::net {

struct FaultConfig {
  double drop_p = 0.0;     // silently discard
  double dup_p = 0.0;      // deliver twice
  double reorder_p = 0.0;  // hold until the next packet (or reorder_hold)
  sim::Time reorder_hold = sim::microseconds(100);
  double jitter_p = 0.0;   // extra delivery delay in [0, jitter_max]
  sim::Time jitter_max = 0;
  // Probability of running the wire-codec conformance check on a packet.
  double codec_check_p = 0.0;

  bool any() const {
    return drop_p > 0 || dup_p > 0 || reorder_p > 0 ||
           (jitter_p > 0 && jitter_max > 0) || codec_check_p > 0;
  }
};

struct FaultStats {
  std::int64_t forwarded = 0;
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t reordered = 0;
  std::int64_t jittered = 0;
  std::int64_t codec_checked = 0;
  std::int64_t codec_failures = 0;

  FaultStats& operator+=(const FaultStats& o) {
    forwarded += o.forwarded;
    dropped += o.dropped;
    duplicated += o.duplicated;
    reordered += o.reordered;
    jittered += o.jittered;
    codec_checked += o.codec_checked;
    codec_failures += o.codec_failures;
    return *this;
  }
};

class FaultInjector : public PacketSink {
 public:
  FaultInjector(sim::Simulator* sim, sim::Rng rng, const FaultConfig& config);

  void set_target(PacketSink* target) { target_ = target; }
  PacketSink* target() const { return target_; }

  // Re-homes the injector onto a shard's simulator (it runs on the delivery
  // side of its link). Only legal before traffic: no packet may be held
  // and no hold timer pending (checked in every build), or the timer would
  // stay on the old simulator.
  void rebind_simulator(sim::Simulator* sim) {
    ACDC_CHECK(held_ == nullptr && hold_timer_ == sim::kInvalidEventId,
               "fault injector: rebind_simulator while holding a packet");
    sim_ = sim;
  }

  void receive(PacketPtr packet) override;

  const FaultStats& stats() const { return stats_; }
  const FaultConfig& config() const { return config_; }

 private:
  struct Jittered;  // a jittered packet's delivery event

  void codec_check(const Packet& packet);
  // Applies jitter (if drawn) and hands the packet to the target.
  void deliver(PacketPtr packet);
  void forward(PacketPtr packet);
  void flush_held();

  sim::Simulator* sim_;
  sim::Rng rng_;
  FaultConfig config_;
  PacketSink* target_ = nullptr;
  PacketPtr held_;  // one-deep reorder slot
  sim::EventId hold_timer_ = sim::kInvalidEventId;
  FaultStats stats_;
};

}  // namespace acdc::net
