// The 3-tier closed-loop service (DESIGN.md §15): user populations ->
// frontend RPC servers -> partition-aggregate fan-out across leaf workers
// -> optional storage tier behind each worker. One ServiceTier wires the
// whole pipeline over hosts the caller assigns to roles; Scenario's
// add_service_workload is the usual entry point.
//
// Parallel-shard safety: every component's timers live on its own host's
// shard simulator, every component draws from its own RNG substream, and
// the only cross-shard coupling is the packets themselves (plus the
// mutex-guarded frame conduits, whose pops are ordered after their pushes
// by the packets' mailbox edges). Same seed, same results, any shard or
// thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "app/fanout.h"
#include "app/rpc.h"
#include "app/users.h"
#include "obs/metrics.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace acdc::app {

// Host-to-role assignment; `storage` empty builds a 2-tier service.
struct ServiceRoles {
  std::vector<host::Host*> clients;
  std::vector<host::Host*> frontends;
  std::vector<host::Host*> workers;
  std::vector<host::Host*> storage;
};

struct ServiceConfig {
  RpcServerConfig frontend = {.port = 7000,
                              .service_time = sim::microseconds(20),
                              .response_bytes = 8000,
                              .workers = 64,
                              .backlog_limit = 4096};
  RpcServerConfig worker = {.port = 7100,
                            .service_time = sim::microseconds(80),
                            .service_jitter_mean = sim::microseconds(40),
                            .response_bytes = 4000,
                            .response_jitter_bytes = 4000,
                            .workers = 32,
                            .backlog_limit = 2048};
  RpcServerConfig storage = {.port = 7200,
                             .service_time = sim::microseconds(120),
                             .service_jitter_mean = sim::microseconds(60),
                             .response_bytes = 6000,
                             .workers = 32,
                             .backlog_limit = 2048};
  FanoutConfig fanout;
  UserPopulationConfig users;
  sim::Time start = sim::milliseconds(1);
};

struct ServiceStats {
  UserGroupStats user;  // merged across every group (incl. late responses)
  RpcServerStats frontend;
  RpcServerStats worker;
  RpcServerStats storage;
  FanoutStats fanout;
  std::int64_t groups = 0;
  std::int64_t conduits_live = 0;

  // Folds these stats into `into`: counts and histograms add, busy peaks
  // take the max.
  void merge_into(ServiceStats& into) const;

  // Sustained completed requests per simulated second.
  double requests_per_sec(sim::Time elapsed) const {
    const double s = sim::to_seconds(elapsed);
    return s > 0.0 ? static_cast<double>(user.completed) / s : 0.0;
  }
};

class ServiceTier {
 public:
  // Each component runs on the simulator of the host it is built on.
  ServiceTier(const ServiceRoles& roles, const ServiceConfig& config,
              const tcp::TcpConfig& tcp_config, sim::Rng rng);

  ServiceStats stats() const;
  // True once every session ended, every connection FINed and every
  // server/coordinator ran dry — the quiescent end state the property
  // tests and the fuzzer's transparency oracle wait for.
  bool drained() const;

  const ServiceConfig& config() const { return config_; }
  const std::vector<std::unique_ptr<UserGroup>>& groups() const {
    return groups_;
  }
  ConduitRegistry& conduits() { return registry_; }

  // Registers `svc.*` gauges (request-latency percentiles incl. p999,
  // requests / misses / SLO-violation counters, sustained rps, per-tier
  // rejects) covering the components whose host runs on `shard_sim` — call
  // once per shard registry; gauges never read another shard's state.
  void register_metrics(sim::Simulator* shard_sim,
                        obs::MetricsRegistry& registry);

 private:
  ConduitRegistry registry_;
  ServiceConfig config_;
  std::vector<std::unique_ptr<RpcServer>> frontend_servers_;
  std::vector<std::unique_ptr<RpcServer>> worker_servers_;
  std::vector<std::unique_ptr<RpcServer>> storage_servers_;
  std::vector<std::unique_ptr<RpcClient>> leaf_clients_;     // frontend->worker
  std::vector<std::unique_ptr<RpcClient>> storage_clients_;  // worker->storage
  std::vector<std::unique_ptr<FanoutCoordinator>> coordinators_;
  std::vector<std::unique_ptr<UserGroup>> groups_;
};

}  // namespace acdc::app
