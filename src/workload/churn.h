// Open-loop flow-churn workload engine: millions of short transfers with
// the full SYN → data → FIN (or RST) lifecycle, arriving faster or slower
// than the fabric drains them — the regime the paper's fixed-flow
// evaluation never enters, and the one that exercises flow-table GC,
// cap-eviction and host connection teardown (§3.1/§4).
//
// A ChurnSource drives one sender→receiver host pair from its own RNG
// substream, with timers bound to the *sender's* simulator so a source is
// parallel-shard safe by construction: every sender-side callback touches
// only sender-shard state, and the receiver side is wired once at setup
// through the receiver host's own listener (accepted connections close on
// peer FIN and release themselves — receiver-shard state only).
//
// Arrival processes:
//   kPoisson     exponential inter-arrival gaps at flows_per_sec
//   kBurstyOnOff exponential on/off phases (means 10 ms and 40 ms);
//                arrivals only during "on", at 4 x flows_per_sec
#pragma once

#include <cstdint>

#include "host/host.h"
#include "sim/flat_map.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace acdc::workload {

enum class ArrivalKind { kPoisson, kBurstyOnOff };

struct ChurnConfig {
  ArrivalKind arrival = ArrivalKind::kPoisson;
  // Mean arrival rate per source (kPoisson; base rate for kBurstyOnOff).
  double flows_per_sec = 1000.0;
  // Payload bytes of every flow.
  std::int64_t message_bytes = 10'000;
  // Fraction of flows torn down by RST at a uniformly-drawn point of the
  // transfer instead of completing the FIN handshake.
  double abort_probability = 0.0;
  // Hold the connection open this long after the last byte is acked before
  // sending FIN. The cheap way to push concurrent-flow counts far above
  // what the fabric's bandwidth alone would sustain.
  sim::Time linger = 0;
  // No new arrivals at or after this source-relative time (kNoTime = run
  // until the simulation stops; in-flight flows always finish naturally).
  sim::Time stop_after = sim::kNoTime;
  // Arrivals beyond this many live flows on one source are counted as
  // skipped instead of launched (0 = unbounded). Bounds sender memory when
  // the fabric cannot keep up with the offered load.
  std::int64_t max_concurrent_per_source = 0;
};

struct ChurnStats {
  std::int64_t started = 0;    // connections launched
  std::int64_t completed = 0;  // full SYN -> data -> FIN -> kDone lifecycle
  std::int64_t aborted = 0;    // RST teardown (requested aborts)
  std::int64_t skipped = 0;    // arrivals dropped at max_concurrent
  std::int64_t acked_bytes = 0;  // payload acked across finished flows
  std::int64_t concurrent = 0;   // live flows right now
  std::int64_t peak_concurrent = 0;

  ChurnStats& operator+=(const ChurnStats& o) {
    started += o.started;
    completed += o.completed;
    aborted += o.aborted;
    skipped += o.skipped;
    acked_bytes += o.acked_bytes;
    concurrent += o.concurrent;
    peak_concurrent += o.peak_concurrent;
    return *this;
  }
};

class ChurnSource {
 public:
  // Timers run on the sender host's simulator (the sender's shard). The
  // receiver's listener for `port` is installed here, before any run, so
  // no cross-shard mutation happens at run time.
  ChurnSource(host::Host* sender, host::Host* receiver, net::TcpPort port,
              tcp::TcpConfig tcp_config, ChurnConfig config, sim::Rng rng,
              sim::Time start);

  ChurnSource(const ChurnSource&) = delete;
  ChurnSource& operator=(const ChurnSource&) = delete;
  ~ChurnSource();

  const ChurnStats& stats() const { return stats_; }
  const ChurnConfig& config() const { return config_; }
  host::Host* sender() const { return sender_; }

 private:
  struct Flow {
    std::int64_t bytes = 0;
    std::int64_t abort_at = -1;  // acked-byte threshold; -1 = clean FIN
    bool data_done = false;
  };

  void start();
  void arm_arrival();
  void on_arrival();
  void flip_phase();
  void launch(std::int64_t bytes, bool abort_flow);
  void finish(tcp::TcpConnection* conn);
  bool stopped() const;

  host::Host* sender_;
  host::Host* receiver_;
  net::TcpPort port_;
  tcp::TcpConfig tcp_config_;
  ChurnConfig config_;
  sim::Rng rng_;
  sim::Time start_;
  sim::Time mean_gap_ = 0;       // Poisson / bursty-on inter-arrival mean
  bool burst_on_ = true;
  bool arrival_armed_ = false;
  sim::FlatMap<tcp::TcpConnection*, Flow> flows_;
  ChurnStats stats_;
};

}  // namespace acdc::workload
