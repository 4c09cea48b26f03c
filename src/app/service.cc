#include "app/service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/check.h"

namespace acdc::app {
namespace {

// Per-component substream tags, split from the tier's own RNG (which the
// Scenario in turn split from its seed): adding a tier, or a component
// within one, never perturbs any other consumer's draws.
constexpr std::uint64_t kFrontendStream = 0x5E4F'0000'0000'0000ull;
constexpr std::uint64_t kWorkerStream = 0x5E40'0000'0000'0000ull;
constexpr std::uint64_t kStorageStream = 0x5E45'0000'0000'0000ull;
constexpr std::uint64_t kCoordStream = 0x5E4C'0000'0000'0000ull;
constexpr std::uint64_t kGroupStream = 0x5E46'0000'0000'0000ull;

// The worker -> storage nested call.
constexpr std::int64_t kStorageRequestBytes = 128;
constexpr sim::Time kStorageDeadline = sim::milliseconds(5);

void merge_server(const RpcServerStats& from, RpcServerStats& into) {
  into.accepted_conns += from.accepted_conns;
  into.requests += from.requests;
  into.responses += from.responses;
  into.rejected += from.rejected;
  into.orphaned += from.orphaned;
  into.busy_peak = std::max(into.busy_peak, from.busy_peak);
}

void merge_fanout(const FanoutStats& from, FanoutStats& into) {
  into.fanouts += from.fanouts;
  into.leaf_calls += from.leaf_calls;
  into.leaf_misses += from.leaf_misses;
  into.degraded += from.degraded;
  into.leaf_latency.merge(from.leaf_latency);
}

}  // namespace

void ServiceStats::merge_into(ServiceStats& into) const {
  user.merge_into(into.user);
  into.groups += groups;
  into.conduits_live += conduits_live;
  merge_server(frontend, into.frontend);
  merge_server(worker, into.worker);
  merge_server(storage, into.storage);
  merge_fanout(fanout, into.fanout);
}

ServiceTier::ServiceTier(const ServiceRoles& roles, const ServiceConfig& config,
                         const tcp::TcpConfig& tcp_config, sim::Rng rng)
    : config_(config) {
  ACDC_CHECK(!roles.clients.empty() && !roles.frontends.empty() &&
                 !roles.workers.empty(),
             "service tier: every role needs a host (clients=%zu, "
             "frontends=%zu, workers=%zu)",
             roles.clients.size(), roles.frontends.size(),
             roles.workers.size());

  // ---- Storage tier (innermost first, so listeners exist before any SYN
  // can arrive) ----
  for (std::size_t i = 0; i < roles.storage.size(); ++i) {
    storage_servers_.push_back(std::make_unique<RpcServer>(
        roles.storage[i], &registry_, tcp_config, config_.storage,
        rng.split(kStorageStream + i)));
  }

  // ---- Worker tier ----
  for (std::size_t i = 0; i < roles.workers.size(); ++i) {
    host::Host* h = roles.workers[i];
    worker_servers_.push_back(std::make_unique<RpcServer>(
        h, &registry_, tcp_config, config_.worker,
        rng.split(kWorkerStream + i)));
    if (!roles.storage.empty()) {
      host::Host* sh = roles.storage[i % roles.storage.size()];
      storage_clients_.push_back(std::make_unique<RpcClient>(
          h, &registry_, sh->ip(), config_.storage.port, tcp_config));
      RpcClient* sc = storage_clients_.back().get();
      worker_servers_.back()->set_handler(
          [h, sc](const RpcServer::Request& req, RpcServer::Respond respond) {
            const sim::Time t0 = h->sim()->now();
            const sim::Time deadline = std::min(
                kStorageDeadline, std::max<sim::Time>(req.deadline - t0, 1));
            sc->call(kStorageRequestBytes, deadline,
                     [h, t0, respond = std::move(respond)](
                         const RpcResult& r) {
                       respond(!r.timed_out && r.ok, h->sim()->now() - t0);
                     });
          });
    }
  }

  // ---- Frontend tier: each frontend keeps a connected leaf client per
  // worker and fans out over them ----
  for (std::size_t i = 0; i < roles.frontends.size(); ++i) {
    host::Host* h = roles.frontends[i];
    std::vector<RpcClient*> leaves;
    for (host::Host* w : roles.workers) {
      leaf_clients_.push_back(std::make_unique<RpcClient>(
          h, &registry_, w->ip(), config_.worker.port, tcp_config));
      leaves.push_back(leaf_clients_.back().get());
    }
    coordinators_.push_back(std::make_unique<FanoutCoordinator>(
        h->sim(), std::move(leaves), config_.fanout,
        rng.split(kCoordStream + i)));
    FanoutCoordinator* coord = coordinators_.back().get();
    frontend_servers_.push_back(std::make_unique<RpcServer>(
        h, &registry_, tcp_config, config_.frontend,
        rng.split(kFrontendStream + i)));
    frontend_servers_.back()->set_handler(
        [coord](const RpcServer::Request& req, RpcServer::Respond respond) {
          coord->issue(req.deadline,
                       [respond = std::move(respond)](
                           const FanoutCoordinator::Aggregate& agg) {
                         respond(agg.ok, agg.wall);
                       });
        });
  }

  // ---- User population, packed onto persistent connections and spread
  // round-robin over client hosts and frontends ----
  const std::int64_t per_conn =
      std::max<std::int64_t>(1, config_.users.users_per_connection);
  std::int64_t remaining = config_.users.users;
  std::size_t g = 0;
  while (remaining > 0) {
    const std::int64_t sessions = std::min<std::int64_t>(per_conn, remaining);
    remaining -= sessions;
    host::Host* ch = roles.clients[g % roles.clients.size()];
    host::Host* fh = roles.frontends[g % roles.frontends.size()];
    groups_.push_back(std::make_unique<UserGroup>(
        ch, &registry_, fh->ip(), config_.frontend.port, tcp_config,
        config_.users, sessions, rng.split(kGroupStream + g), config_.start));
    ++g;
  }
}

ServiceStats ServiceTier::stats() const {
  ServiceStats out;
  out.groups = static_cast<std::int64_t>(groups_.size());
  for (const auto& grp : groups_) {
    grp->stats().merge_into(out.user);
  }
  for (const auto& s : frontend_servers_) merge_server(s->stats(), out.frontend);
  for (const auto& s : worker_servers_) merge_server(s->stats(), out.worker);
  for (const auto& s : storage_servers_) merge_server(s->stats(), out.storage);
  for (const auto& c : coordinators_) merge_fanout(c->stats(), out.fanout);
  out.conduits_live = static_cast<std::int64_t>(registry_.size());
  return out;
}

bool ServiceTier::drained() const {
  for (const auto& g : groups_) {
    if (!g->drained()) return false;
  }
  for (const auto& c : coordinators_) {
    if (c->in_flight() != 0) return false;
  }
  for (const auto* servers :
       {&frontend_servers_, &worker_servers_, &storage_servers_}) {
    for (const auto& s : *servers) {
      if (s->in_flight() != 0) return false;
    }
  }
  return true;
}

void ServiceTier::register_metrics(sim::Simulator* shard_sim,
                                   obs::MetricsRegistry& registry) {
  std::vector<UserGroup*> mine;
  for (const auto& g : groups_) {
    if (g->sim() == shard_sim) mine.push_back(g.get());
  }
  if (!mine.empty()) {
    const auto merged = [mine] {
      obs::Histogram h;
      for (UserGroup* g : mine) h.merge(g->stats().latency);
      return h;
    };
    registry.register_gauge("svc.request_latency_ns.count", [merged] {
      return static_cast<double>(merged().count());
    });
    registry.register_gauge("svc.request_latency_ns.p50", [merged] {
      return static_cast<double>(merged().quantile(0.5));
    });
    registry.register_gauge("svc.request_latency_ns.p99", [merged] {
      return static_cast<double>(merged().quantile(0.99));
    });
    registry.register_gauge("svc.request_latency_ns.p999", [merged] {
      return static_cast<double>(merged().quantile(0.999));
    });
    registry.register_gauge("svc.request_latency_ns.max", [merged] {
      return static_cast<double>(merged().max());
    });
    const auto sum = [mine](auto field) {
      std::int64_t total = 0;
      for (UserGroup* g : mine) total += field(g->stats());
      return static_cast<double>(total);
    };
    registry.register_gauge("svc.requests", [sum] {
      return sum([](const UserGroupStats& s) { return s.issued; });
    });
    registry.register_gauge("svc.completed", [sum] {
      return sum([](const UserGroupStats& s) { return s.completed; });
    });
    registry.register_gauge("svc.deadline_misses", [sum] {
      return sum([](const UserGroupStats& s) { return s.deadline_misses; });
    });
    registry.register_gauge("svc.slo_violations", [sum] {
      return sum([](const UserGroupStats& s) { return s.slo_violations; });
    });
    registry.register_gauge("svc.sessions", [sum] {
      return sum([](const UserGroupStats& s) { return s.sessions; });
    });
    // Sustained completed requests per simulated second, so far.
    registry.register_gauge("svc.rps", [sum, shard_sim] {
      const double s = sim::to_seconds(shard_sim->now());
      return s > 0.0
                 ? sum([](const UserGroupStats& st) { return st.completed; }) / s
                 : 0.0;
    });
  }

  using Servers = std::vector<std::unique_ptr<RpcServer>>;
  const auto register_tier =
      [&registry, shard_sim](const char* name, const Servers& servers) {
        std::vector<const RpcServer*> local;
        for (const auto& s : servers) {
          if (s->host()->sim() == shard_sim) local.push_back(s.get());
        }
        if (local.empty()) return;
        const std::string prefix = std::string("svc.") + name;
        registry.register_gauge(prefix + ".requests", [local] {
          std::int64_t v = 0;
          for (const RpcServer* s : local) v += s->stats().requests;
          return static_cast<double>(v);
        });
        registry.register_gauge(prefix + ".rejected", [local] {
          std::int64_t v = 0;
          for (const RpcServer* s : local) v += s->stats().rejected;
          return static_cast<double>(v);
        });
        registry.register_gauge(prefix + ".busy_peak", [local] {
          std::int64_t v = 0;
          for (const RpcServer* s : local) v = std::max(v, s->stats().busy_peak);
          return static_cast<double>(v);
        });
      };
  register_tier("frontend", frontend_servers_);
  register_tier("worker", worker_servers_);
  register_tier("storage", storage_servers_);
}

}  // namespace acdc::app
