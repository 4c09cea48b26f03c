#include "exp/matrix.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <utility>

#include "app/service.h"
#include "exp/leaf_spine.h"
#include "exp/star.h"
#include "sim/hash.h"
#include "sim/rng.h"
#include "stats/fct_collector.h"
#include "stats/percentile.h"
#include "workload/churn.h"

namespace acdc::exp {
namespace {

// Substream tags for cell seeds; mixed from identifiers, not grid
// positions, so --ccs/--scenarios subsets reproduce full-grid cells.
constexpr std::uint64_t kCcStream = 0xCCAC5E00;
constexpr std::uint64_t kScenStream = 0x5CE4A110;

constexpr std::int64_t kMtuBytes = 1500;
constexpr std::int64_t kIncastBytes = 64 * 1024;  // per sender per round
constexpr double kSloMs = 10.0;  // mice FCT deadline (RTOmin-scale)
// kService: sessions multiplexed per connection, and the request deadline.
// Think time (2 s) and fan-out (4 workers) are the app-tier defaults.
constexpr int kServiceUsersPerConn = 50;
constexpr sim::Time kServiceDeadline = sim::milliseconds(40);

// Fixed-precision, locale-independent double formatting so report bytes
// (and therefore digests) are stable across runs and machines.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

struct CellWorkload {
  std::vector<host::MessageApp*> measured;  // FCT + fairness population
  std::vector<host::BulkApp*> background;   // mixed-tenant elephants
};

// A vSwitch on every host, running `cc` as its default policy.
std::vector<vswitch::AcdcVswitch*> attach_vswitches(
    Scenario& s, const std::vector<host::Host*>& hosts, vswitch::VccKind cc) {
  vswitch::AcdcConfig acfg;
  acfg.mtu_bytes = kMtuBytes;
  // The star's 4 x 2 us propagation plus serialization; the leaf-spine
  // cell keeps the same base.
  acfg.vcc.base_rtt_us = 25.0;
  vswitch::FlowPolicy policy;
  policy.kind = cc;
  std::vector<vswitch::AcdcVswitch*> vswitches;
  for (host::Host* h : hosts) {
    vswitch::AcdcVswitch* vs = s.attach_acdc(h, acfg);
    vs->policy().set_default(policy);
    vswitches.push_back(vs);
  }
  return vswitches;
}

// Runs to mc.horizon in fixed steps and returns the mean, over the steps,
// of the deepest queue on `switches` at each run_until boundary (shard
// clocks agree there, so samples are shard-invariant). The peak comes from
// the queues' exact high-watermark stat instead (finish_cell), so
// sub-boundary transients are not missed.
double run_sampling_queues(Scenario& s, const MatrixConfig& mc,
                           const std::vector<net::Switch*>& switches) {
  const int steps = std::max(1, mc.queue_samples);
  std::int64_t queue_sum = 0;
  for (int step = 1; step <= steps; ++step) {
    s.run_until(mc.horizon * step / steps);
    std::int64_t depth = 0;
    for (const net::Switch* sw : switches) {
      for (const auto& port : sw->ports()) {
        depth = std::max(depth, port->queue().byte_length());
      }
    }
    queue_sum += depth;
  }
  return static_cast<double>(queue_sum) / steps;
}

// FCT aggregates from a sorted copy: completion order is
// shard-timing-dependent, the sorted multiset is not.
void summarize_fct(std::vector<double> samples_ms, CellResult& out) {
  std::sort(samples_ms.begin(), samples_ms.end());
  out.fct_count = samples_ms.size();
  if (samples_ms.empty()) return;
  stats::Sampler sorted;
  for (double v : samples_ms) sorted.add(v);
  out.fct_p50_ms = sorted.percentile(50.0);
  out.fct_p99_ms = sorted.percentile(99.0);
  out.fct_mean_ms = sorted.mean();
}

// Jain fairness over `allocations`, and the fabric and vSwitch counters.
void finish_cell(const Scenario& s, const std::vector<double>& allocations,
                 const std::vector<vswitch::AcdcVswitch*>& vswitches,
                 CellResult& out) {
  out.fairness = allocations.size() > 1
                     ? stats::jain_fairness_index(allocations)
                     : 1.0;
  const net::QueueStats q = s.fabric_stats();
  out.queue_peak_bytes = q.peak_bytes;
  out.drops = q.dropped_packets;
  out.marks = q.marked_packets;
  for (const vswitch::AcdcVswitch* vs : vswitches) {
    out.windows_lowered += vs->stats().windows_lowered;
  }
}

// The closed-loop service cell: a 3-tier service (clients -> frontends ->
// partition-aggregate across workers -> storage) on a 2x2 leaf-spine,
// every host's vSwitch running `cc`. The fct_* columns carry
// user-perceived request latency (misses censored at the deadline), and
// fairness is Jain over per-session-group delivered response bytes. Same
// determinism contract as the star cells: aggregates come from sorted
// sample vectors and per-component counters, never from cross-shard
// completion order.
CellResult run_service_cell(const MatrixConfig& mc, vswitch::VccKind cc,
                            CellResult out) {
  LeafSpineConfig lc;
  lc.scenario.seed = out.cell_seed;
  lc.scenario.mtu_bytes = kMtuBytes;
  lc.leaves = 2;
  lc.spines = 2;
  lc.hosts_per_leaf = 6;
  LeafSpine fabric(lc);
  Scenario& s = fabric.scenario();

  if (mc.shards > 1) s.enable_parallel(mc.shards, mc.threads);

  std::vector<net::Switch*> switches;
  for (int l = 0; l < fabric.leaves(); ++l) switches.push_back(fabric.leaf(l));
  for (int sp = 0; sp < fabric.spines(); ++sp) {
    switches.push_back(fabric.spine(sp));
  }
  for (net::Switch* sw : switches) {
    for (const auto& port : sw->ports()) port->enable_telemetry();
  }

  const std::vector<vswitch::AcdcVswitch*> vswitches =
      attach_vswitches(s, fabric.hosts(), cc);

  // Roles: clients and storage on leaf 0 / leaf 1's last host, workers on
  // leaf 1, one frontend per leaf — every tier boundary crosses the
  // fabric, so the uplinks carry the partition-aggregate pattern.
  app::ServiceRoles roles;
  for (int h = 0; h < 4; ++h) roles.clients.push_back(fabric.host(0, h));
  roles.frontends = {fabric.host(0, 4), fabric.host(1, 4)};
  for (int h = 0; h < 4; ++h) roles.workers.push_back(fabric.host(1, h));
  roles.storage = {fabric.host(0, 5), fabric.host(1, 5)};

  app::ServiceConfig svc;
  svc.users.users = mc.service_users;
  svc.users.users_per_connection = kServiceUsersPerConn;
  svc.users.deadline = kServiceDeadline;
  svc.users.slo = static_cast<sim::Time>(kSloMs * 1e6);
  const tcp::TcpConfig tenant = s.tcp_config(tcp::CcId::kCubic);
  app::ServiceTier* tier = s.add_service_workload(roles, svc, tenant);

  out.queue_mean_bytes = run_sampling_queues(s, mc, switches);

  const app::ServiceStats st = tier->stats();
  std::vector<double> samples;
  samples.reserve(st.user.samples.size());
  for (std::int64_t ns : st.user.samples) {
    samples.push_back(sim::to_milliseconds(ns));
  }
  summarize_fct(std::move(samples), out);
  out.slo_violations = st.user.slo_violations;
  out.delivered_bytes = st.user.response_bytes;

  std::vector<double> allocations;
  for (const auto& grp : tier->groups()) {
    allocations.push_back(
        static_cast<double>(grp->stats().response_bytes));
  }
  finish_cell(s, allocations, vswitches, out);
  return out;
}

// One matrix cell: an independent star-topology Scenario running `cc` as
// the vSwitch default policy under `scenario`'s workload.
CellResult run_cell(const MatrixConfig& mc, vswitch::VccKind cc,
                    MatrixScenario scenario) {
  CellResult out;
  out.cc = cc;
  out.scenario = scenario;
  out.cell_seed = sim::mix_seed(
      sim::mix_seed(mc.seed, kCcStream + static_cast<std::uint64_t>(cc)),
      kScenStream + static_cast<std::uint64_t>(scenario));

  if (scenario == MatrixScenario::kService) {
    return run_service_cell(mc, cc, out);
  }

  int hosts = 0;
  switch (scenario) {
    case MatrixScenario::kIncast:
      hosts = mc.incast_fanin + 3;  // + receiver + two elephants
      break;
    case MatrixScenario::kShuffle:
      hosts = mc.shuffle_hosts;
      break;
    case MatrixScenario::kChurn:
      hosts = mc.churn_sources + 2;
      break;
    case MatrixScenario::kMixedTenant:
      hosts = 5;
      break;
    case MatrixScenario::kService:
      break;  // handled by run_service_cell above
  }

  StarConfig sc;
  sc.scenario.seed = out.cell_seed;
  sc.scenario.mtu_bytes = kMtuBytes;
  sc.hosts = hosts;
  // 1ns per-spoke skew: keeps independent uplinks off each other's ticks,
  // which is what makes the serial and 2-shard reports byte-identical.
  sc.host_delay_skew = sim::nanoseconds(1);
  Star star(sc);
  Scenario& s = star.scenario();

  if (mc.shards > 1) s.enable_parallel(mc.shards, mc.threads);

  // INT telemetry on every hub egress port — on for every cell (not just
  // the telemetry-consuming CCs) so all columns run the same datapath and
  // differ only in the virtual algorithm.
  for (const auto& port : star.hub()->ports()) port->enable_telemetry();

  const std::vector<vswitch::AcdcVswitch*> vswitches =
      attach_vswitches(s, star.hosts(), cc);

  const tcp::TcpConfig tenant = s.tcp_config(tcp::CcId::kCubic);
  stats::FctCollector fct(10 * 1024);
  CellWorkload w;
  const sim::Time t0 = sim::milliseconds(1);

  switch (scenario) {
    case MatrixScenario::kIncast:
      // Near-synchronized rounds: every sender fires kIncastBytes at
      // host 0 within a few µs — the §5 incast pattern. Two long-lived
      // elephants (same CC) keep the port loaded between rounds, so the
      // mice p99 reflects the standing queue each algorithm maintains.
      // The 1µs per-sender stagger (vs 2ms rounds) keeps the burst intact
      // while avoiding exact-tick ties between senders on different
      // shards: event-queue ties break by insertion order, which is the
      // one thing the serial and sharded engines order differently.
      for (int i = 1; i <= mc.incast_fanin; ++i) {
        w.measured.push_back(s.add_message_app(
            star.host(i), star.host(0), tenant,
            t0 + i * sim::microseconds(1), sim::milliseconds(2),
            kIncastBytes, &fct));
      }
      for (int i = mc.incast_fanin + 1; i <= mc.incast_fanin + 2; ++i) {
        w.background.push_back(s.add_bulk_flow(
            star.host(i), star.host(0), tenant, i * sim::microseconds(1)));
      }
      break;
    case MatrixScenario::kShuffle: {
      // All-to-all mice; starts staggered deterministically so rounds
      // overlap without being phase-locked.
      int pair = 0;
      for (int i = 0; i < hosts; ++i) {
        for (int j = 0; j < hosts; ++j) {
          if (i == j) continue;
          w.measured.push_back(s.add_message_app(
              star.host(i), star.host(j), tenant,
              t0 + pair * sim::microseconds(100), sim::milliseconds(4),
              mc.message_bytes, &fct));
          ++pair;
        }
      }
      break;
    }
    case MatrixScenario::kChurn: {
      // Open-loop churn into host 0's downlink; two probe mice apps share
      // the congested port and carry the FCT measurement (ChurnSource has
      // no collector of its own).
      workload::ChurnConfig cc_cfg;
      cc_cfg.flows_per_sec = 400.0;
      cc_cfg.message_bytes = 10'000;
      cc_cfg.stop_after = mc.horizon * 3 / 5;
      for (int i = 0; i < mc.churn_sources; ++i) {
        s.add_churn_workload(star.host(i + 2), star.host(0), tenant, cc_cfg);
      }
      for (int p = 0; p < 2; ++p) {
        w.measured.push_back(s.add_message_app(
            star.host(1), star.host(0), tenant, t0 + p * sim::milliseconds(1),
            sim::milliseconds(2), mc.message_bytes, &fct));
      }
      break;
    }
    case MatrixScenario::kMixedTenant: {
      // Two long-lived vCUBIC elephants (per-flow dst-port policy rules)
      // sharing host 0's downlink with two mice tenants running the CC
      // under test — the §3.4 mixed-policy port.
      // Starts staggered by 1µs for the same cross-shard tie-avoidance as
      // the incast cell.
      w.background.push_back(s.add_bulk_flow(star.host(1), star.host(0),
                                             tenant, sim::microseconds(1)));
      w.background.push_back(s.add_bulk_flow(star.host(2), star.host(0),
                                             tenant, sim::microseconds(2)));
      for (host::BulkApp* bulk : w.background) {
        vswitch::FlowPolicy bp;
        bp.kind = vswitch::VccKind::kCubic;
        for (vswitch::AcdcVswitch* vs : vswitches) {
          vs->policy().add_dst_port_rule(bulk->port(), bp);
        }
      }
      for (int i = 3; i <= 4; ++i) {
        w.measured.push_back(s.add_message_app(
            star.host(i), star.host(0), tenant,
            t0 + i * sim::microseconds(1), sim::milliseconds(2),
            mc.message_bytes, &fct));
      }
      break;
    }
    case MatrixScenario::kService:
      break;  // unreachable: dispatched to run_service_cell
  }

  out.queue_mean_bytes = run_sampling_queues(s, mc, {star.hub()});

  const std::vector<double>& samples = fct.all_ms().values();
  summarize_fct(samples, out);
  out.slo_violations = std::count_if(samples.begin(), samples.end(),
                                     [](double v) { return v > kSloMs; });

  std::vector<double> allocations;
  for (host::MessageApp* app : w.measured) {
    allocations.push_back(static_cast<double>(app->delivered_bytes()));
    out.delivered_bytes += app->delivered_bytes();
  }
  for (host::BulkApp* app : w.background) {
    out.delivered_bytes += app->delivered_bytes();
  }
  finish_cell(s, allocations, vswitches, out);
  return out;
}

std::string csv_row(const CellResult& c, bool with_digest) {
  std::string row;
  row += to_string(c.cc);
  row += ',';
  row += to_string(c.scenario);
  row += ',' + std::to_string(c.cell_seed);
  row += ',' + std::to_string(c.fct_count);
  row += ',' + fmt(c.fct_p50_ms);
  row += ',' + fmt(c.fct_p99_ms);
  row += ',' + fmt(c.fct_mean_ms);
  row += ',' + std::to_string(c.slo_violations);
  row += ',' + std::to_string(c.queue_peak_bytes);
  row += ',' + fmt(c.queue_mean_bytes);
  row += ',' + fmt(c.fairness);
  row += ',' + std::to_string(c.delivered_bytes);
  row += ',' + std::to_string(c.drops);
  row += ',' + std::to_string(c.marks);
  row += ',' + std::to_string(c.windows_lowered);
  if (with_digest) row += ',' + std::to_string(c.digest);
  return row;
}

// The enumerator of E named `s`: walks E from 0 through its to_string,
// which answers "?" past the last enumerator, so each enum's names live in
// its to_string alone.
template <typename E>
std::optional<E> enum_from_string(std::string_view s) {
  for (int i = 0;; ++i) {
    const std::string_view name = to_string(static_cast<E>(i));
    if (name == "?") return std::nullopt;
    if (name == s) return static_cast<E>(i);
  }
}

}  // namespace

const char* to_string(MatrixScenario scenario) {
  switch (scenario) {
    case MatrixScenario::kIncast:
      return "incast";
    case MatrixScenario::kShuffle:
      return "shuffle";
    case MatrixScenario::kChurn:
      return "churn";
    case MatrixScenario::kMixedTenant:
      return "mixed-tenant";
    case MatrixScenario::kService:
      return "service";
  }
  return "?";
}

std::optional<MatrixScenario> matrix_scenario_from_string(std::string_view s) {
  if (s == "mixed") return MatrixScenario::kMixedTenant;
  return enum_from_string<MatrixScenario>(s);
}

std::optional<vswitch::VccKind> vcc_from_string(std::string_view s) {
  return enum_from_string<vswitch::VccKind>(s);
}

MatrixConfig MatrixConfig::quick() const {
  MatrixConfig q = *this;
  q.incast_fanin = 4;
  q.shuffle_hosts = 4;
  q.churn_sources = 2;
  q.horizon = sim::milliseconds(120);
  q.queue_samples = 24;
  q.service_users = 2000;
  return q;
}

std::string MatrixReport::to_json() const {
  std::string j = "{\n  \"schema\": \"acdc-matrix-v1\",\n  \"seed\": ";
  j += std::to_string(seed);
  j += ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    j += "    {\"cc\": \"";
    j += to_string(c.cc);
    j += "\", \"scenario\": \"";
    j += to_string(c.scenario);
    j += "\", \"cell_seed\": " + std::to_string(c.cell_seed);
    j += ", \"fct_count\": " + std::to_string(c.fct_count);
    j += ", \"fct_p50_ms\": " + fmt(c.fct_p50_ms);
    j += ", \"fct_p99_ms\": " + fmt(c.fct_p99_ms);
    j += ", \"fct_mean_ms\": " + fmt(c.fct_mean_ms);
    j += ", \"slo_violations\": " + std::to_string(c.slo_violations);
    j += ", \"queue_peak_bytes\": " + std::to_string(c.queue_peak_bytes);
    j += ", \"queue_mean_bytes\": " + fmt(c.queue_mean_bytes);
    j += ", \"fairness\": " + fmt(c.fairness);
    j += ", \"delivered_bytes\": " + std::to_string(c.delivered_bytes);
    j += ", \"drops\": " + std::to_string(c.drops);
    j += ", \"marks\": " + std::to_string(c.marks);
    j += ", \"windows_lowered\": " + std::to_string(c.windows_lowered);
    j += ", \"digest\": " + std::to_string(c.digest);
    j += i + 1 < cells.size() ? "},\n" : "}\n";
  }
  j += "  ]\n}\n";
  return j;
}

std::string MatrixReport::to_csv() const {
  std::string csv =
      "cc,scenario,cell_seed,fct_count,fct_p50_ms,fct_p99_ms,fct_mean_ms,"
      "slo_violations,queue_peak_bytes,queue_mean_bytes,fairness,"
      "delivered_bytes,drops,marks,windows_lowered,digest\n";
  for (const CellResult& c : cells) csv += csv_row(c, true) + "\n";
  return csv;
}

std::string MatrixReport::to_table() const {
  std::string t;
  char buf[256];
  for (const CellResult& c : cells) {
    std::snprintf(buf, sizeof(buf),
                  "%-12s %-12s fct(n=%llu) p50=%8.3fms p99=%8.3fms slo=%lld "
                  "qpeak=%8lld fair=%.4f drops=%lld lowered=%lld\n",
                  to_string(c.cc), to_string(c.scenario),
                  static_cast<unsigned long long>(c.fct_count), c.fct_p50_ms,
                  c.fct_p99_ms, static_cast<long long>(c.slo_violations),
                  static_cast<long long>(c.queue_peak_bytes), c.fairness,
                  static_cast<long long>(c.drops),
                  static_cast<long long>(c.windows_lowered));
    t += buf;
  }
  return t;
}

std::uint64_t MatrixReport::digest() const {
  const std::string j = to_json();
  return sim::fnv1a(sim::kFnvOffsetBasis, j.data(), j.size());
}

const CellResult* MatrixReport::cell(vswitch::VccKind cc,
                                     MatrixScenario scenario) const {
  for (const CellResult& c : cells) {
    if (c.cc == cc && c.scenario == scenario) return &c;
  }
  return nullptr;
}

MatrixReport run_matrix(const MatrixConfig& config) {
  MatrixReport report;
  report.seed = config.seed;
  for (vswitch::VccKind cc : config.ccs) {
    for (MatrixScenario scenario : config.scenarios) {
      CellResult cell = run_cell(config, cc, scenario);
      const std::string row = csv_row(cell, false);
      cell.digest = sim::fnv1a(sim::kFnvOffsetBasis, row.data(), row.size());
      report.cells.push_back(cell);
    }
  }
  return report;
}

}  // namespace acdc::exp
