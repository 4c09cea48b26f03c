// Partition-aggregate fan-out (the web-search pattern behind the paper's
// incast figures): a root issues one leaf RPC to each of `fanout` workers
// and aggregates the responses. Every leaf call carries its own per-level
// deadline (capped by the root request's remaining budget), so a straggler
// leaf degrades the aggregate instead of wedging it — aggregation always
// terminates because RpcClient guarantees per-call termination.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "app/rpc.h"
#include "obs/metrics.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace acdc::app {

struct FanoutConfig {
  int fanout = 4;  // leaves contacted per request (<= clients.size())
  sim::Time leaf_deadline = sim::milliseconds(8);  // relative, per leaf, > 0
};

struct FanoutStats {
  std::int64_t fanouts = 0;
  std::int64_t leaf_calls = 0;
  std::int64_t leaf_misses = 0;   // leaf calls past their deadline
  std::int64_t degraded = 0;      // aggregates with a missed leaf
  obs::Histogram leaf_latency;    // per-leaf-call latency, ns
};

class FanoutCoordinator {
 public:
  struct Aggregate {
    int asked = 0;
    int answered = 0;   // in-deadline, ok responses
    int missed = 0;     // timed-out or degraded leaf calls
    bool ok = false;    // every leaf answered
    sim::Time wall = 0; // first leaf call issued -> last leaf result
    std::int64_t response_bytes = 0;  // sum over answered leaves
  };
  using Done = std::function<void(const Aggregate&)>;

  // `leaves`: one connected RpcClient per candidate worker, all living on
  // the root's host/shard (non-owning).
  FanoutCoordinator(sim::Simulator* sim, std::vector<RpcClient*> leaves,
                    const FanoutConfig& config, sim::Rng rng);

  // Issues one partition-aggregate round. `budget` is the absolute
  // deadline of the enclosing request; each leaf call's deadline is
  // min(leaf_deadline, remaining budget), at least 1 ns. `done` fires
  // exactly once, when the last leaf call ends.
  void issue(sim::Time budget, Done done);

  const FanoutStats& stats() const { return stats_; }
  std::int64_t in_flight() const { return in_flight_; }

 private:
  sim::Simulator* sim_;
  std::vector<RpcClient*> leaves_;
  FanoutConfig config_;
  sim::Rng rng_;
  FanoutStats stats_;
  std::int64_t in_flight_ = 0;  // outstanding leaf calls across rounds
  std::size_t cursor_ = 0;      // rotates the leaf subset across rounds
};

}  // namespace acdc::app
