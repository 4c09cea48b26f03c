#include "testlib/scenario_gen.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "exp/dumbbell.h"
#include "exp/leaf_spine.h"
#include "exp/star.h"

namespace acdc::testlib {

namespace {

// Stream id for plan sampling; link fault injectors use streams 1..N of the
// same seed (exp::Scenario::wrap_link), so plan draws never collide with
// fault draws.
constexpr std::uint64_t kPlanStream = 0xACDCF022;

// Churn workload draws live on their own substream so sampling (or
// masking) churn never shifts topology/workload/fault draws — the same
// isolation contract the per-link fault streams give the shrinker.
constexpr std::uint64_t kChurnPlanStream = 0xACDCC4B2;

// Arsenal policy draws (INT telemetry + per-flow CC from the full arsenal,
// including PowerTCP and fair-rate) on their own substream, so masking the
// arsenal leaves every other draw bit-identical.
constexpr std::uint64_t kArsenalPlanStream = 0xACDCA12E;

// Closed-loop service workload draws (user population, role slot counts,
// deadlines) on their own substream, so masking the service leaves every
// other draw bit-identical.
constexpr std::uint64_t kServicePlanStream = 0xACDC5EC7;

constexpr tcp::CcId tenant_cc_pool[] = {
    tcp::CcId::kCubic, tcp::CcId::kReno, tcp::CcId::kVegas,
    tcp::CcId::kIllinois, tcp::CcId::kHighspeed};

constexpr vswitch::VccKind arsenal_pool[] = {
    vswitch::VccKind::kDctcp, vswitch::VccKind::kReno,
    vswitch::VccKind::kCubic, vswitch::VccKind::kPowerTcp,
    vswitch::VccKind::kFairRate};

// Everything a sampled topology exposes to the harness: the scenario, the
// host list (transfer indices refer to it) and the switches to audit.
struct BuiltTopology {
  std::unique_ptr<exp::Star> star;
  std::unique_ptr<exp::Dumbbell> dumbbell;
  std::unique_ptr<exp::LeafSpine> leaf_spine;
  exp::Scenario* scenario = nullptr;
  std::vector<host::Host*> hosts;
  std::vector<net::Switch*> switches;
};

BuiltTopology build_topology(const ScenarioPlan& plan) {
  exp::ScenarioConfig sc;
  sc.seed = plan.seed;
  sc.mtu_bytes = plan.mtu_bytes;
  sc.link_faults = plan.faults;

  BuiltTopology t;
  switch (plan.topology) {
    case TopologyKind::kSingleSwitch: {
      exp::StarConfig cfg;
      cfg.scenario = sc;
      cfg.hosts = plan.hosts;
      t.star = std::make_unique<exp::Star>(cfg);
      t.scenario = &t.star->scenario();
      for (int i = 0; i < t.star->host_count(); ++i) {
        t.hosts.push_back(t.star->host(i));
      }
      t.switches.push_back(t.star->hub());
      break;
    }
    case TopologyKind::kDumbbell: {
      exp::DumbbellConfig cfg;
      cfg.scenario = sc;
      cfg.pairs = plan.hosts / 2;
      t.dumbbell = std::make_unique<exp::Dumbbell>(cfg);
      t.scenario = &t.dumbbell->scenario();
      // Senders first, receivers after: transfer indices [0, pairs) are on
      // the left switch, [pairs, 2*pairs) on the right.
      for (int i = 0; i < t.dumbbell->pairs(); ++i) {
        t.hosts.push_back(t.dumbbell->sender(i));
      }
      for (int i = 0; i < t.dumbbell->pairs(); ++i) {
        t.hosts.push_back(t.dumbbell->receiver(i));
      }
      t.switches.push_back(t.dumbbell->left());
      t.switches.push_back(t.dumbbell->right());
      break;
    }
    case TopologyKind::kLeafSpine: {
      exp::LeafSpineConfig cfg;
      cfg.scenario = sc;
      cfg.leaves = 2;
      cfg.spines = 2;
      cfg.hosts_per_leaf = plan.hosts / 2;
      t.leaf_spine = std::make_unique<exp::LeafSpine>(cfg);
      t.scenario = &t.leaf_spine->scenario();
      for (int l = 0; l < t.leaf_spine->leaves(); ++l) {
        for (int i = 0; i < t.leaf_spine->hosts_per_leaf(); ++i) {
          t.hosts.push_back(t.leaf_spine->host(l, i));
        }
      }
      for (int l = 0; l < t.leaf_spine->leaves(); ++l) {
        t.switches.push_back(t.leaf_spine->leaf(l));
      }
      for (int s = 0; s < t.leaf_spine->spines(); ++s) {
        t.switches.push_back(t.leaf_spine->spine(s));
      }
      break;
    }
  }
  return t;
}

}  // namespace

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kSingleSwitch:
      return "star";
    case TopologyKind::kDumbbell:
      return "dumbbell";
    case TopologyKind::kLeafSpine:
      return "leaf-spine";
  }
  return "?";
}

std::string ScenarioPlan::summary() const {
  std::ostringstream os;
  os << "seed=" << seed << " topo=" << to_string(topology)
     << " hosts=" << hosts << " mtu=" << mtu_bytes
     << " vcc=" << vswitch::to_string(arsenal_default_vcc.value_or(vcc))
     << " beta=" << beta;
  if (int_telemetry) os << " telemetry";
  if (!transfer_vcc.empty()) {
    os << " arsenal[";
    for (std::size_t i = 0; i < transfer_vcc.size(); ++i) {
      if (i > 0) os << ",";
      os << (transfer_vcc[i]
                 ? vswitch::to_string(*transfer_vcc[i])
                 : "-");
    }
    os << "]";
  }
  if (max_rwnd_bytes > 0) os << " rwnd-cap=" << max_rwnd_bytes;
  if (police) os << " police";
  if (inject_dupacks_on_timeout) os << " dupack-inject";
  if (incast) os << " incast";
  os << " transfers=" << transfers.size();
  if (churn.enabled) {
    os << " churn[sources=" << churn.pairs.size()
       << " rate=" << churn.flows_per_sec << "/s bytes="
       << churn.message_bytes << " abort=" << churn.abort_probability
       << (churn.bursty ? " bursty" : "")
       << " cap=" << churn.table_cap << "]";
  }
  if (service.enabled) {
    os << " service[users=" << service.users << " roles=" << service.clients
       << "c/" << service.frontends << "f/" << service.workers << "w/"
       << service.storage << "s fanout=" << service.fanout
       << " deadline=" << service.deadline / 1000 << "us"
       << (service.curve == app::LoadCurve::kDiurnal ? " diurnal"
           : service.curve == app::LoadCurve::kBurst ? " burst"
                                                     : "")
       << "]";
  }
  os << " faults[drop=" << faults.drop_p << " dup=" << faults.dup_p
     << " reorder=" << faults.reorder_p << " jitter=" << faults.jitter_p
     << "]";
  return os.str();
}

ScenarioPlan make_plan(std::uint64_t seed) {
  ScenarioPlan plan;
  plan.seed = seed;
  sim::Rng rng(sim::mix_seed(seed, kPlanStream));

  switch (rng.uniform_int(0, 2)) {
    case 0:
      plan.topology = TopologyKind::kSingleSwitch;
      plan.hosts = static_cast<int>(rng.uniform_int(3, 6));
      break;
    case 1:
      plan.topology = TopologyKind::kDumbbell;
      plan.hosts = 2 * static_cast<int>(rng.uniform_int(2, 3));
      break;
    default:
      plan.topology = TopologyKind::kLeafSpine;
      plan.hosts = 2 * static_cast<int>(rng.uniform_int(2, 4));
      break;
  }
  plan.mtu_bytes = rng.chance(0.5) ? 1500 : 9000;

  // Conservative fault rates: enough to exercise loss/reorder recovery and
  // stale-feedback paths without making transfers crawl past the horizon.
  if (rng.chance(0.7)) {
    net::FaultConfig& f = plan.faults;
    if (rng.chance(0.6)) f.drop_p = rng.uniform_real(0.0005, 0.004);
    if (rng.chance(0.4)) f.dup_p = rng.uniform_real(0.0005, 0.003);
    if (rng.chance(0.5)) {
      f.reorder_p = rng.uniform_real(0.001, 0.01);
      f.reorder_hold = sim::microseconds(rng.uniform_int(20, 300));
    }
    if (rng.chance(0.5)) {
      f.jitter_p = rng.uniform_real(0.005, 0.05);
      f.jitter_max = sim::microseconds(rng.uniform_int(5, 100));
    }
  }
  // Always round-trip a sample of live packets through the wire codec.
  plan.faults.codec_check_p = 0.05;

  // AC/DC policy.
  const std::int64_t vcc_draw = rng.uniform_int(0, 9);
  plan.vcc = vcc_draw < 6   ? vswitch::VccKind::kDctcp
             : vcc_draw < 8 ? vswitch::VccKind::kReno
                            : vswitch::VccKind::kCubic;
  plan.beta = rng.chance(0.3) ? rng.uniform_real(0.3, 1.0) : 1.0;
  plan.max_rwnd_bytes =
      rng.chance(0.2) ? rng.uniform_int(32, 256) * 1024 : 0;
  plan.police = rng.chance(0.25);
  plan.inject_dupacks_on_timeout = rng.chance(0.15);
  plan.incast = rng.chance(0.25);

  // Workload: fixed-size transfers so runs quiesce and the differential
  // oracle can compare byte-exact deliveries.
  const int senders_end =
      plan.topology == TopologyKind::kDumbbell ? plan.hosts / 2 : plan.hosts;
  const int n = static_cast<int>(plan.incast ? rng.uniform_int(3, 5)
                                             : rng.uniform_int(1, 4));
  int incast_dst = static_cast<int>(rng.uniform_int(0, plan.hosts - 1));
  if (plan.topology == TopologyKind::kDumbbell) {
    incast_dst = plan.hosts / 2 +
                 static_cast<int>(rng.uniform_int(0, plan.hosts / 2 - 1));
  }
  for (int i = 0; i < n; ++i) {
    TransferPlan tp;
    tp.src = static_cast<int>(rng.uniform_int(0, senders_end - 1));
    if (plan.incast) {
      tp.dst = incast_dst;
      if (tp.src == tp.dst) tp.src = (tp.src + 1) % senders_end;
    } else if (plan.topology == TopologyKind::kDumbbell) {
      tp.dst = plan.hosts / 2 +
               static_cast<int>(rng.uniform_int(0, plan.hosts / 2 - 1));
    } else {
      tp.dst = static_cast<int>(rng.uniform_int(0, plan.hosts - 1));
      if (tp.dst == tp.src) tp.dst = (tp.dst + 1) % plan.hosts;
    }
    tp.bytes = rng.uniform_int(30, 400) * 1024;
    tp.start = sim::microseconds(rng.uniform_int(0, 20'000));
    tp.host_cc =
        tenant_cc_pool[rng.uniform_int(0, std::size(tenant_cc_pool) - 1)];
    plan.transfers.push_back(tp);
  }

  // Churn workload (own substream; see kChurnPlanStream).
  sim::Rng crng(sim::mix_seed(seed, kChurnPlanStream));
  if (crng.chance(0.4)) {
    ChurnWorkloadPlan& c = plan.churn;
    c.enabled = true;
    const int sources = static_cast<int>(crng.uniform_int(1, 3));
    for (int i = 0; i < sources; ++i) {
      const int src = static_cast<int>(crng.uniform_int(0, plan.hosts - 1));
      int dst = static_cast<int>(crng.uniform_int(0, plan.hosts - 1));
      if (dst == src) dst = (dst + 1) % plan.hosts;
      c.pairs.emplace_back(src, dst);
    }
    c.flows_per_sec = static_cast<double>(crng.uniform_int(500, 4000));
    c.message_bytes = crng.uniform_int(1, 40) * 1024;
    c.abort_probability = crng.chance(0.5) ? crng.uniform_real(0.05, 0.3) : 0.0;
    c.bursty = crng.chance(0.3);
    // Half the churn plans squeeze the flow table hard enough that the cap
    // bites (a few entries per host pair), exercising LRU eviction under
    // live traffic; the rest leave it unbounded.
    c.table_cap = crng.chance(0.5) ? crng.uniform_int(4, 16) : 0;
    c.stop_after = sim::milliseconds(crng.uniform_int(20, 60));
  }

  // Closed-loop service workload (own substream; see kServicePlanStream).
  // Roles are contiguous host slices, so the slot counts must fit the
  // sampled host budget; the smallest topology (3-host star) still fits a
  // 1-client / 1-frontend / 1-worker pipeline.
  sim::Rng srng(sim::mix_seed(seed, kServicePlanStream));
  if (srng.chance(0.35)) {
    ServiceWorkloadPlan& s = plan.service;
    s.enabled = true;
    s.clients = static_cast<int>(srng.uniform_int(1, 2));
    s.frontends = 1;
    s.workers = static_cast<int>(srng.uniform_int(1, 2));
    s.storage = srng.chance(0.5) ? 1 : 0;
    while (s.clients + s.frontends + s.workers + s.storage > plan.hosts) {
      if (s.storage > 0) {
        s.storage = 0;
      } else if (s.workers > 1) {
        --s.workers;
      } else {
        --s.clients;
      }
    }
    s.users = srng.uniform_int(40, 240);
    s.users_per_connection = static_cast<int>(srng.uniform_int(8, 24));
    s.think_mean = sim::milliseconds(srng.uniform_int(4, 25));
    // Generous against fuzz faults (drops/jitter on every link): misses
    // are a legal outcome, but most requests should land so the run drains
    // well before the horizon.
    s.deadline = sim::milliseconds(srng.uniform_int(5, 20));
    s.slo = s.deadline / 2;
    s.fanout = static_cast<int>(srng.uniform_int(1, s.workers));
    const std::int64_t curve_draw = srng.uniform_int(0, 2);
    s.curve = curve_draw == 0   ? app::LoadCurve::kSteady
              : curve_draw == 1 ? app::LoadCurve::kDiurnal
                                : app::LoadCurve::kBurst;
    s.host_cc =
        tenant_cc_pool[srng.uniform_int(0, std::size(tenant_cc_pool) - 1)];
    s.stop_after = sim::milliseconds(srng.uniform_int(30, 80));
  }

  // Arsenal policy (own substream; see kArsenalPlanStream). Telemetry and
  // CC draws are independent: a PowerTCP/fair-rate flow on a telemetry-less
  // fabric must degrade gracefully, and that path deserves fuzz pressure.
  sim::Rng arng(sim::mix_seed(seed, kArsenalPlanStream));
  plan.int_telemetry = arng.chance(0.6);
  if (arng.chance(0.3)) {
    plan.arsenal_default_vcc =
        arsenal_pool[arng.uniform_int(0, std::size(arsenal_pool) - 1)];
  }
  if (arng.chance(0.5)) {
    for (std::size_t i = 0; i < plan.transfers.size(); ++i) {
      plan.transfer_vcc.push_back(
          arng.chance(0.6)
              ? std::optional<vswitch::VccKind>(
                    arsenal_pool[arng.uniform_int(
                        0, std::size(arsenal_pool) - 1)])
              : std::nullopt);
    }
  }
  return plan;
}

void mask_faults(ScenarioPlan& plan, const FaultToggles& keep) {
  if (!keep.drop) plan.faults.drop_p = 0.0;
  if (!keep.dup) plan.faults.dup_p = 0.0;
  if (!keep.reorder) plan.faults.reorder_p = 0.0;
  if (!keep.jitter) plan.faults.jitter_p = 0.0;
  if (!keep.churn) plan.churn = ChurnWorkloadPlan{};
  if (!keep.service) plan.service = ServiceWorkloadPlan{};
  if (!keep.arsenal) {
    plan.int_telemetry = false;
    plan.arsenal_default_vcc.reset();
    plan.transfer_vcc.clear();
  }
}

RunOutcome run_plan(const ScenarioPlan& plan, const RunOptions& options) {
  BuiltTopology topo = build_topology(plan);
  exp::Scenario& scenario = *topo.scenario;
  if (options.shards > 1) {
    exp::ParallelOptions popts;
    popts.shards = options.shards;
    popts.threads = options.threads;
    if (options.handoff_batch > 0) popts.handoff_batch = options.handoff_batch;
    scenario.enable_parallel(popts);
  }
  if (plan.int_telemetry) {
    // INT sampling at every switch egress port; samplers are per-port state
    // driven by the port's own shard clock, so this is parallel-safe.
    for (net::Switch* sw : topo.switches) {
      for (const auto& port : sw->ports()) port->enable_telemetry();
    }
  }
  CheckedRun checked(scenario, std::size_t{1} << 12);

  std::vector<vswitch::AcdcVswitch*> vswitches;
  if (options.acdc) {
    vswitch::AcdcConfig acfg;
    acfg.inject_dupacks_on_timeout = plan.inject_dupacks_on_timeout;
    acfg.flow_table_max_entries = plan.churn.table_cap;
    vswitch::FlowPolicy policy;
    policy.kind = plan.arsenal_default_vcc.value_or(plan.vcc);
    policy.beta = plan.beta;
    policy.max_rwnd_bytes = plan.max_rwnd_bytes;
    policy.police = plan.police;
    for (host::Host* h : topo.hosts) {
      vswitch::AcdcVswitch* vs = checked.attach_acdc(h, acfg);
      vs->policy().set_default(policy);
      vswitches.push_back(vs);
    }
  }

  std::vector<host::BulkApp*> apps;
  for (const TransferPlan& tp : plan.transfers) {
    apps.push_back(scenario.add_bulk_flow(
        topo.hosts[static_cast<std::size_t>(tp.src)],
        topo.hosts[static_cast<std::size_t>(tp.dst)],
        scenario.tcp_config(tp.host_cc), tp.start, tp.bytes));
  }
  // Per-transfer arsenal CC via dst-port rules (the apps' listen ports are
  // assigned deterministically in creation order). Rules go on every
  // vSwitch: both directions' entries look up the data-direction dst port.
  if (options.acdc && !plan.transfer_vcc.empty()) {
    for (std::size_t i = 0;
         i < apps.size() && i < plan.transfer_vcc.size(); ++i) {
      if (!plan.transfer_vcc[i]) continue;
      for (vswitch::AcdcVswitch* vs : vswitches) {
        vswitch::FlowPolicy p = vs->policy().default_policy();
        p.kind = *plan.transfer_vcc[i];
        vs->policy().add_dst_port_rule(apps[i]->port(), p);
      }
    }
  }

  const bool churn_on = plan.churn.enabled && !plan.churn.pairs.empty();
  if (churn_on) {
    workload::ChurnConfig ccfg;
    ccfg.arrival = plan.churn.bursty ? workload::ArrivalKind::kBurstyOnOff
                                     : workload::ArrivalKind::kPoisson;
    ccfg.flows_per_sec = plan.churn.flows_per_sec;
    ccfg.message_bytes = plan.churn.message_bytes;
    ccfg.abort_probability = plan.churn.abort_probability;
    ccfg.stop_after = plan.churn.stop_after;
    ccfg.max_concurrent_per_source = 256;  // bounded even if the fabric lags
    for (const auto& [src, dst] : plan.churn.pairs) {
      scenario.add_churn_workload(topo.hosts[static_cast<std::size_t>(src)],
                                  topo.hosts[static_cast<std::size_t>(dst)],
                                  scenario.tcp_config(tcp::CcId::kCubic),
                                  ccfg);
    }
  }

  // Closed-loop service workload: roles are contiguous non-overlapping
  // slices of the host list (clients, then frontends, workers, storage),
  // so no tier ever talks to itself over loopback. The same hosts may also
  // carry transfers and churn — the RPC ports (7000/7100/7200) never
  // collide with the bulk/churn listen ports.
  const bool service_on = plan.service.enabled;
  app::ServiceTier* service_tier = nullptr;
  sim::Time service_stop = 0;
  if (service_on) {
    const ServiceWorkloadPlan& sp = plan.service;
    app::ServiceRoles roles;
    std::size_t next_host = 0;
    const auto take = [&](int n) {
      std::vector<host::Host*> out;
      for (int i = 0; i < n && next_host < topo.hosts.size(); ++i) {
        out.push_back(topo.hosts[next_host++]);
      }
      return out;
    };
    roles.clients = take(sp.clients);
    roles.frontends = take(sp.frontends);
    roles.workers = take(sp.workers);
    roles.storage = take(sp.storage);
    app::ServiceConfig svc;
    svc.users.users = sp.users;
    svc.users.users_per_connection = sp.users_per_connection;
    svc.users.think_time_mean = sp.think_mean;
    svc.users.deadline = sp.deadline;
    svc.users.slo = sp.slo;
    svc.users.curve = sp.curve;
    svc.users.stop_after = sp.stop_after;
    svc.fanout.fanout = sp.fanout;
    service_tier =
        scenario.add_service_workload(roles, svc, scenario.tcp_config(sp.host_cc));
    service_stop = svc.start + sp.stop_after;
  }
  // Conduits that outlive the drain by design: frontend->worker leaf
  // clients plus one storage client per worker. Everything else must
  // detach, but drained() is client-observed — when loss eats the final
  // ACK of a FIN handshake the server half lingers in LastAck past the
  // client's Done — so quiescence also waits for the registry to shrink
  // to exactly this set before the leak check below may run.
  const std::int64_t service_persistent =
      static_cast<std::int64_t>(plan.service.frontends) * plan.service.workers +
      (plan.service.storage > 0 ? plan.service.workers : 0);

  // Run to quiescence (every transfer complete, churn drained, service
  // sessions ended and drained) or the horizon.
  const sim::Time step = sim::milliseconds(50);
  sim::Time now = 0;
  bool all_done = false;
  while (now < options.horizon && !all_done) {
    now = std::min(now + step, options.horizon);
    scenario.run_until(now);
    all_done = std::all_of(apps.begin(), apps.end(),
                           [](host::BulkApp* a) { return a->completed(); });
    if (churn_on) {
      all_done = all_done && now >= plan.churn.stop_after &&
                 scenario.churn_stats().concurrent == 0;
    }
    if (service_on) {
      all_done = all_done && now >= service_stop && service_tier->drained() &&
                 static_cast<std::int64_t>(service_tier->conduits().size()) ==
                     service_persistent;
    }
  }

  RunOutcome out;
  out.completed = all_done;
  out.end_time = scenario.now();
  Digest app_digest;
  for (host::BulkApp* a : apps) {
    out.delivered.push_back(a->delivered_bytes());
    app_digest.mix(static_cast<std::uint64_t>(a->delivered_bytes()));
    app_digest.mix(a->completed() ? 1 : 0);
  }
  out.churn = scenario.churn_stats();
  // Churn deliveries are part of the application-level result too: the
  // parallel engine must reproduce every lifecycle count bit-for-bit.
  app_digest.mix(static_cast<std::uint64_t>(out.churn.started));
  app_digest.mix(static_cast<std::uint64_t>(out.churn.completed));
  app_digest.mix(static_cast<std::uint64_t>(out.churn.aborted));
  app_digest.mix(static_cast<std::uint64_t>(out.churn.skipped));
  app_digest.mix(static_cast<std::uint64_t>(out.churn.acked_bytes));
  app_digest.mix(static_cast<std::uint64_t>(out.churn.peak_concurrent));
  // Service accounting is application-level outcome too. These aggregates
  // are engine-independent (unlike the flight-recorder stream, whose
  // layout varies with the shard count), so the parallel engine must
  // reproduce them bit-for-bit at any shard/thread/knob setting.
  out.service = scenario.service_stats();
  if (service_on) {
    const app::UserGroupStats& u = out.service.user;
    app_digest.mix(static_cast<std::uint64_t>(u.sessions));
    app_digest.mix(static_cast<std::uint64_t>(u.sessions_ended));
    app_digest.mix(static_cast<std::uint64_t>(u.issued));
    app_digest.mix(static_cast<std::uint64_t>(u.completed));
    app_digest.mix(static_cast<std::uint64_t>(u.deadline_misses));
    app_digest.mix(static_cast<std::uint64_t>(u.slo_violations));
    app_digest.mix(static_cast<std::uint64_t>(u.degraded));
    app_digest.mix(static_cast<std::uint64_t>(u.response_bytes));
    app_digest.mix(static_cast<std::uint64_t>(u.latency.count()));
    if (u.latency.count() > 0) {
      app_digest.mix(static_cast<std::uint64_t>(u.latency.min()));
      app_digest.mix(static_cast<std::uint64_t>(u.latency.max()));
    }
  }
  out.app_digest = app_digest.h;
  out.faults = scenario.fault_stats();

  checked.audit(topo.switches, topo.hosts);
  if (out.faults.codec_failures > 0) {
    checked.fail("wire codec round-trip failed on " +
                 std::to_string(out.faults.codec_failures) + " of " +
                 std::to_string(out.faults.codec_checked) +
                 " sampled packets");
  }
  // Closed-loop accounting closure only holds once the service drained;
  // a run that hit the horizon is already flagged via `completed`.
  if (service_on && out.completed) {
    const app::UserGroupStats& u = out.service.user;
    if (u.issued != u.completed + u.deadline_misses) {
      checked.fail("service accounting leak: issued " +
                   std::to_string(u.issued) + " != completed " +
                   std::to_string(u.completed) + " + misses " +
                   std::to_string(u.deadline_misses));
    }
    if (u.sessions_ended != u.sessions) {
      checked.fail("service sessions leaked: " +
                   std::to_string(u.sessions - u.sessions_ended) + " of " +
                   std::to_string(u.sessions) + " never ended");
    }
    // Quiescence waited for the registry to reach the persistent set;
    // anything above it here is a genuine both-ends-done leak.
    if (out.service.conduits_live != service_persistent) {
      checked.fail("service conduit leak: " +
                   std::to_string(out.service.conduits_live) +
                   " live after drain, want " +
                   std::to_string(service_persistent));
    }
  }
  static_cast<CheckSummary&>(out) = checked.summary();
  if (!options.artifact_base.empty()) {
    checked.write_artifacts(options.artifact_base);
  }
  return out;
}

DifferentialOutcome run_differential(const ScenarioPlan& plan,
                                     const RunOptions& options) {
  DifferentialOutcome d;
  RunOptions with = options;
  with.acdc = true;
  d.with_acdc = run_plan(plan, with);

  RunOptions without = options;
  without.acdc = false;
  d.baseline = run_plan(plan, without);

  // Transparency (§3): the tenant's application-level byte streams must be
  // unaffected by the vSwitch — every transfer completes and delivers
  // exactly the planned bytes in both worlds.
  if (!d.with_acdc.completed) {
    d.violations.push_back("AC/DC run did not quiesce within the horizon");
  }
  if (!d.baseline.completed) {
    d.violations.push_back("baseline run did not quiesce within the horizon");
  }
  // Closed-loop service transparency: request COUNTS are deliberately not
  // compared across the worlds — a user issues its next request only after
  // the previous one terminates, so offered load legitimately depends on
  // the response timing AC/DC changes. What must hold in both worlds is
  // clean termination: quiescence (checked above via `completed`) plus
  // accounting closure. The AC/DC side's closure is enforced inside
  // run_plan (ok() counts it); mirror the baseline's here.
  if (plan.service.enabled && d.baseline.completed) {
    const app::UserGroupStats& u = d.baseline.service.user;
    if (u.issued != u.completed + u.deadline_misses ||
        u.sessions_ended != u.sessions) {
      d.violations.push_back(
          "baseline service did not terminate cleanly: issued " +
          std::to_string(u.issued) + ", completed " +
          std::to_string(u.completed) + ", misses " +
          std::to_string(u.deadline_misses) + ", sessions " +
          std::to_string(u.sessions_ended) + "/" +
          std::to_string(u.sessions));
    }
  }
  if (d.with_acdc.completed && d.baseline.completed) {
    for (std::size_t i = 0; i < plan.transfers.size(); ++i) {
      const std::int64_t want = plan.transfers[i].bytes;
      const std::int64_t got_acdc = d.with_acdc.delivered[i];
      const std::int64_t got_base = d.baseline.delivered[i];
      if (got_acdc != want || got_base != want) {
        std::ostringstream os;
        os << "transfer " << i << ": delivered " << got_acdc
           << " with AC/DC vs " << got_base << " baseline (want " << want
           << ")";
        d.violations.push_back(os.str());
      }
    }
  }
  return d;
}

}  // namespace acdc::testlib
