// User-population model: closed-loop sessions with think-time loops. A
// UserGroup multiplexes `sessions` users onto one persistent RpcClient
// (the edge-proxy idiom — what makes 1M simulated users cost ~tens of
// thousands of connections, not a million). Each session loops
// think -> request -> wait-for-result -> think; the think-rate is shaped
// by a load curve (steady / diurnal sine / bursty on-off). A thinking
// session costs one entry in the group's think-timer heap, not an event of
// its own (sim::TimerHeap: only the group's earliest think waits in the
// event queue, at the position its own event would take). All timers run
// on the owning host's shard simulator and all randomness comes from the
// group's own RNG substream, so populations are parallel-shard safe and
// adding one never perturbs another.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "app/rpc.h"
#include "obs/metrics.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer_heap.h"

namespace acdc::app {

enum class LoadCurve : std::uint8_t {
  kSteady,   // constant think rate
  kDiurnal,  // sinusoidal modulation (day/night)
  kBurst,    // on/off phases with a rate multiplier while on
};

struct UserPopulationConfig {
  std::int64_t users = 1000;
  // Sessions multiplexed per persistent connection (edge-proxy fan-in).
  int users_per_connection = 32;
  sim::Time think_time_mean = sim::seconds(2.0);
  // End-to-end request deadline; a miss is a terminal outcome (the
  // response, if it ever arrives, is counted late and swallowed).
  sim::Time deadline = sim::milliseconds(100);
  // SLO threshold (<= deadline): terminations above it count as
  // violations. Misses are censored at the deadline, so they violate too.
  sim::Time slo = sim::milliseconds(20);
  LoadCurve curve = LoadCurve::kSteady;
  sim::Time diurnal_period = sim::seconds(20.0);
  // Sessions stop issuing at start + stop_after (kNoTime = never); idle
  // sessions end immediately, in-flight ones when their request
  // terminates, and the group FINs its connection once drained.
  sim::Time stop_after = sim::kNoTime;
  // Record exact per-termination latencies (ns) for exact percentiles in
  // reports; the fixed-memory histogram is always kept.
  bool keep_latency_samples = true;
};

struct UserGroupStats {
  std::int64_t sessions = 0;
  std::int64_t sessions_ended = 0;
  std::int64_t issued = 0;
  std::int64_t completed = 0;        // responses within deadline
  std::int64_t deadline_misses = 0;  // timed out
  std::int64_t slo_violations = 0;   // terminations with latency > slo
  std::int64_t degraded = 0;         // in-time responses with ok == false
  // Stragglers after their deadline: the client's late count, which
  // UserGroup::stats() mirrors here.
  std::int64_t late_responses = 0;
  std::int64_t response_bytes = 0;
  // Every termination (completed at true latency, misses censored at the
  // deadline) — what the svc.request_latency_ns registry gauges read.
  obs::Histogram latency;
  std::vector<std::int64_t> samples;  // ns, same population as `latency`
  TierBreakdown server_cost_sum;      // summed echoed per-tier components

  void merge_into(UserGroupStats& into) const;
};

class UserGroup {
 public:
  // Think and stop timers run on `host`'s simulator.
  UserGroup(host::Host* host, ConduitRegistry* registry,
            net::IpAddr server_ip, net::TcpPort server_port,
            const tcp::TcpConfig& tcp_config,
            const UserPopulationConfig& config, std::int64_t sessions,
            sim::Rng rng, sim::Time start);

  // Test hook: sees every per-request result after accounting.
  void set_observer(std::function<void(const RpcResult&)> observer) {
    observer_ = std::move(observer);
  }

  // The client owns the late count; the stats mirror it when read, in
  // place, so the per-tick gauges copy nothing.
  const UserGroupStats& stats() const {
    stats_.late_responses = client_.stats().late;
    return stats_;
  }
  sim::Simulator* sim() const { return host_->sim(); }
  RpcClient& client() { return client_; }
  const RpcClient& client() const { return client_; }
  // All sessions ended and the connection close has been handed to TCP.
  bool drained() const {
    return stats_.sessions_ended == stats_.sessions &&
           client_.outstanding() == 0;
  }

 private:
  enum class SessionState : std::uint8_t { kThinking, kWaiting, kEnded };

  void arm_think(std::size_t session);
  static void on_think_timer(void* self, std::uint64_t session);
  void on_think(std::size_t session);
  void on_result(std::size_t session, const RpcResult& r);
  void stop_all();
  void maybe_close();
  double rate_multiplier() const;
  void flip_burst();

  host::Host* host_;
  UserPopulationConfig config_;
  sim::Rng rng_;
  sim::Time start_;
  RpcClient client_;
  std::vector<SessionState> sessions_;
  // Every session's pending think, tagged with its index. Ended sessions'
  // thinks stay and fire as no-ops.
  sim::TimerHeap thinks_;
  mutable UserGroupStats stats_;  // mutable for the late-count mirror
  std::function<void(const RpcResult&)> observer_;
  bool stopped_ = false;
  bool burst_on_ = false;
};

}  // namespace acdc::app
