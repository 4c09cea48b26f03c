// Deterministic scenario generator + differential oracle for the fuzz
// harness. A 64-bit seed fully determines a ScenarioPlan — topology,
// workload, AC/DC policy and wire-level fault mix — and running the same
// plan twice produces bit-identical event streams (checked by digest).
//
// Two oracles ride on top:
//   * run_plan() executes a plan as a CheckedRun (testlib/checked_run.h):
//     the InvariantChecker wired into the flight recorder and around every
//     vSwitch, plus the end-of-run audits;
//   * run_differential() replays the identical plan with the AC/DC
//     datapath removed and asserts transparency — the tenant applications
//     deliver exactly the same byte counts either way, and (via the taps)
//     the tenant never sees PACK/FACK/ECE/CE artifacts. Closed-loop
//     service workloads are deliberately NOT byte-compared across the two
//     worlds: how many requests a user issues depends on response timing,
//     which AC/DC legitimately changes. For them transparency means both
//     worlds terminate cleanly — every session ends, every issued request
//     completes or misses its deadline, nothing leaks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "acdc/policy.h"
#include "app/service.h"
#include "net/fault.h"
#include "sim/time.h"
#include "tcp/cc/cc_id.h"
#include "testlib/checked_run.h"
#include "workload/churn.h"

namespace acdc::testlib {

enum class TopologyKind : std::uint8_t {
  kSingleSwitch,  // all hosts on one switch (§5.2 star)
  kDumbbell,      // N pairs across one bottleneck trunk (Fig. 7a)
  kLeafSpine,     // 2x2 leaf-spine with ECMP (§2.3)
};

const char* to_string(TopologyKind kind);

struct TransferPlan {
  int src = 0;  // host index within the sampled topology
  int dst = 1;
  std::int64_t bytes = 100'000;
  sim::Time start = 0;
  tcp::CcId host_cc = tcp::CcId::kCubic;  // tenant stack algorithm
};

// Optional open-loop churn workload riding on a sampled scenario: short
// flows with the full SYN -> data -> FIN/RST lifecycle, plus (optionally) a
// flow-table cap so the LRU eviction path sees fuzz pressure.
// Sampled from its own RNG substream, so enabling/disabling churn never
// shifts any other plan draw — the property the shrinker relies on.
struct ChurnWorkloadPlan {
  bool enabled = false;
  std::vector<std::pair<int, int>> pairs;  // (src, dst) host indices
  double flows_per_sec = 0.0;              // per source
  std::int64_t message_bytes = 0;
  double abort_probability = 0.0;  // RST mid-transfer instead of FIN
  bool bursty = false;             // on/off arrivals instead of Poisson
  std::int64_t table_cap = 0;      // vSwitch flow-table cap (0 = unbounded)
  sim::Time stop_after = 0;        // arrivals cease; in-flight flows drain
};

// Optional closed-loop service workload (src/app): user populations ->
// frontend RPC servers -> partition-aggregate fan-out -> optional storage
// tier, riding on the sampled topology. Role hosts are contiguous,
// non-overlapping slices of the topology's host list (clients first, then
// frontends, workers, storage), so the service never talks to itself over
// loopback. Sampled from its own RNG substream: enabling/disabling it
// never shifts any other plan draw — the property the shrinker relies on.
struct ServiceWorkloadPlan {
  bool enabled = false;
  // Role slot counts; sampled to fit the plan's host budget.
  int clients = 1;
  int frontends = 1;
  int workers = 1;
  int storage = 0;
  std::int64_t users = 0;
  int users_per_connection = 0;
  sim::Time think_mean = 0;
  sim::Time deadline = 0;  // end-to-end; misses are terminal outcomes
  sim::Time slo = 0;
  int fanout = 1;  // leaf workers queried per request (<= workers)
  app::LoadCurve curve = app::LoadCurve::kSteady;
  tcp::CcId host_cc = tcp::CcId::kCubic;  // tenant stack under the RPCs
  sim::Time stop_after = 0;  // sessions stop issuing; in-flight drain
};

struct ScenarioPlan {
  std::uint64_t seed = 1;
  TopologyKind topology = TopologyKind::kSingleSwitch;
  // Stars use `hosts` directly; dumbbells use hosts/2 pairs; leaf-spines
  // place hosts across 2 leaves.
  int hosts = 4;
  std::int64_t mtu_bytes = 1500;
  bool incast = false;  // all transfers converge on one receiver
  net::FaultConfig faults;
  // AC/DC policy applied to every flow.
  vswitch::VccKind vcc = vswitch::VccKind::kDctcp;
  double beta = 1.0;
  std::int64_t max_rwnd_bytes = 0;
  bool police = false;
  bool inject_dupacks_on_timeout = false;
  std::vector<TransferPlan> transfers;
  ChurnWorkloadPlan churn;
  // Closed-loop service workload (own substream; see kServicePlanStream).
  ServiceWorkloadPlan service;
  // ---- Arsenal policy substream (kArsenalPlanStream) ----
  // Drawn independently of every other substream so the shrinker can mask
  // the arsenal without shifting topology/workload/fault/churn draws.
  // INT telemetry sampling on every switch egress port (net/telemetry.h).
  bool int_telemetry = false;
  // Overrides the default vSwitch policy kind (covers churn flows too).
  std::optional<vswitch::VccKind> arsenal_default_vcc;
  // Per-transfer CC assignment via dst-port policy rules; empty entries
  // fall through to the default. Same length as `transfers` when non-empty
  // — incast plans then put mixed-CC tenants on one congested port.
  std::vector<std::optional<vswitch::VccKind>> transfer_vcc;

  // One-line human description for fuzz logs and repro reports.
  std::string summary() const;
};

// Samples a plan from the seed; bit-for-bit reproducible.
ScenarioPlan make_plan(std::uint64_t seed);

// Shrinking support: fault classes still enabled after masking. Toggling a
// class off leaves every other class's draws untouched (each link's
// injector has its own RNG substream, and each class draws independently).
struct FaultToggles {
  bool drop = true;
  bool dup = true;
  bool reorder = true;
  bool jitter = true;
  // Not a wire fault, but the shrinker masks the churn workload the same
  // way: its draws come from an independent substream, so disabling it
  // leaves every other class bit-identical.
  bool churn = true;
  // Arsenal policy substream (telemetry + per-flow CC overrides): also
  // independently maskable for shrinking.
  bool arsenal = true;
  // Closed-loop service workload: same independent-substream masking deal.
  bool service = true;

  bool all() const {
    return drop && dup && reorder && jitter && churn && arsenal && service;
  }
};

void mask_faults(ScenarioPlan& plan, const FaultToggles& keep);

struct RunOptions {
  bool acdc = true;             // false: tenant-only baseline (no vSwitch)
  sim::Time horizon = sim::seconds(60);  // hard cap; ends at quiescence
  // shards > 1 partitions the topology and runs on the parallel engine
  // (exp::Scenario::enable_parallel). The shard count — not the thread
  // count — determines the event streams, so runs with equal `shards` and
  // different `threads` must produce identical digests.
  int shards = 0;
  int threads = 0;  // worker threads; 0 -> one per shard
  // Cross-shard handoff batch depth (exp::ParallelOptions; 0 inherits the
  // engine default). Digests must be identical at every depth.
  int handoff_batch = 0;
  // When set, the run's failure artifacts are written there after it
  // (CheckedRun::write_artifacts: `<base>.trace.json`, the shards' rings
  // merged into one Chrome trace, and `<base>.forensics.txt`); the fuzz
  // driver uses this to attach artifacts to a failing seed.
  std::string artifact_base;
};

// The checked run's summary (event digest, events, packets checked,
// violations) plus the plan's application-level outcome.
struct RunOutcome : CheckSummary {
  bool completed = false;  // every transfer delivered all its bytes
  sim::Time end_time = 0;
  std::vector<std::int64_t> delivered;  // per transfer, app-level bytes
  std::uint64_t app_digest = 0;    // digest over per-transfer deliveries
  net::FaultStats faults;
  workload::ChurnStats churn;  // zero when the plan carries no churn
  app::ServiceStats service;   // zero when the plan carries no service

  bool ok() const { return completed && violation_count == 0; }
};

RunOutcome run_plan(const ScenarioPlan& plan, const RunOptions& options = {});

struct DifferentialOutcome {
  RunOutcome with_acdc;
  RunOutcome baseline;
  std::vector<std::string> violations;  // transparency breaks

  bool ok() const {
    return with_acdc.ok() && baseline.completed && violations.empty();
  }
};

// Runs `plan` with and without the AC/DC datapath and checks transparency.
DifferentialOutcome run_differential(const ScenarioPlan& plan,
                                     const RunOptions& options = {});

}  // namespace acdc::testlib
