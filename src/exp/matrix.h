// Head-to-head virtual-CC matrix: runs every CC in the arsenal against a
// fixed set of stress scenarios (incast, shuffle, churn, mixed-tenant) on
// the single-switch star under one seed discipline, and reports per-cell
// FCT percentiles, queue occupancy, Jain fairness, SLO violations and
// enforcement counters.
//
// Determinism contract: the same MatrixConfig::seed produces a
// byte-identical JSON report on the serial engine and on the sharded
// parallel engine (any thread count). Cell seeds are mixed from the CC /
// scenario *identifiers* — not grid positions — so a sub-matrix cell (CI's
// 2x2 smoke) reproduces the exact cell a full grid would produce. All
// aggregates are computed from sorted sample vectors and quiesced
// end-of-run counters; nothing depends on cross-shard completion order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "acdc/policy.h"
#include "sim/time.h"

namespace acdc::exp {

enum class MatrixScenario : std::uint8_t {
  kIncast,       // N synchronized senders -> one receiver, rounds of bursts
  kShuffle,      // all-to-all mice among N hosts
  kChurn,        // open-loop flow churn background + FCT probe mice
  kMixedTenant,  // CC under test (mice) sharing a port with vCUBIC bulk
  kService,      // closed-loop 3-tier service on a leaf-spine (src/app)
};

const char* to_string(MatrixScenario scenario);
std::optional<MatrixScenario> matrix_scenario_from_string(std::string_view s);
std::optional<vswitch::VccKind> vcc_from_string(std::string_view s);

struct MatrixConfig {
  std::uint64_t seed = 1;
  // Row / column sets; defaults are the full adjudication grid.
  std::vector<vswitch::VccKind> ccs = {
      vswitch::VccKind::kDctcp, vswitch::VccKind::kCubic,
      vswitch::VccKind::kPowerTcp, vswitch::VccKind::kFairRate};
  std::vector<MatrixScenario> scenarios = {
      MatrixScenario::kIncast, MatrixScenario::kShuffle,
      MatrixScenario::kChurn, MatrixScenario::kMixedTenant,
      MatrixScenario::kService};
  // 0/1 = serial engine; >1 = conservative parallel engine per cell.
  int shards = 0;
  int threads = 0;  // 0 -> one per shard

  // ---- Sizing (the CI smoke shrinks these via quick()) ----
  int incast_fanin = 8;        // senders converging on host 0
  int shuffle_hosts = 6;       // all-to-all population
  int churn_sources = 4;       // open-loop churn senders
  std::int64_t message_bytes = 16 * 1024;  // mice size (incast bursts: 64KB)
  sim::Time horizon = sim::milliseconds(400);  // per cell
  int queue_samples = 40;      // run_until boundaries per cell

  // kService sizing: 3-tier closed-loop service (user sessions ->
  // frontends -> partition-aggregate across workers -> storage) on a
  // 2-leaf / 2-spine fabric. The default sustains 100k simulated users per
  // cell; fct_* then report user-perceived request latency and
  // slo_violations counts terminations above the 10 ms SLO (misses
  // censored at the deadline).
  std::int64_t service_users = 100'000;

  // Returns a down-sized copy for CI smoke runs (shorter horizon, smaller
  // fan-in) that still exercises every code path.
  MatrixConfig quick() const;
};

struct CellResult {
  vswitch::VccKind cc = vswitch::VccKind::kDctcp;
  MatrixScenario scenario = MatrixScenario::kIncast;
  std::uint64_t cell_seed = 0;

  // Mice/message FCTs, aggregated from the sorted sample vector.
  std::uint64_t fct_count = 0;
  double fct_p50_ms = 0.0;
  double fct_p99_ms = 0.0;
  double fct_mean_ms = 0.0;
  std::int64_t slo_violations = 0;  // samples exceeding the 10 ms SLO

  // Hub queue occupancy sampled at run_until boundaries (max over ports).
  std::int64_t queue_peak_bytes = 0;
  double queue_mean_bytes = 0.0;

  // Jain's index over per-app delivered bytes (1.0 = perfectly fair).
  double fairness = 1.0;
  std::int64_t delivered_bytes = 0;  // sum over measured apps

  // Fabric + enforcement counters at quiescence.
  std::int64_t drops = 0;
  std::int64_t marks = 0;
  std::int64_t windows_lowered = 0;

  // FNV-1a over this cell's CSV row (identifier for cross-run comparison).
  std::uint64_t digest = 0;
};

struct MatrixReport {
  std::uint64_t seed = 0;
  std::vector<CellResult> cells;

  std::string to_json() const;  // canonical bytes; digest() hashes these
  std::string to_csv() const;
  // Human-readable grid summary (one metric per line group).
  std::string to_table() const;
  std::uint64_t digest() const;

  // The cell at (cc, scenario), or nullptr when the grid skipped it. Tests
  // address cells this way: MatrixTest.ReportIsStructurallySound and
  // MatrixTest.SubGridReproducesFullGridCells.
  const CellResult* cell(vswitch::VccKind cc, MatrixScenario scenario) const;
};

// Runs the full grid. Each cell is an independent Scenario seeded by
// mix_seed over (seed, cc id, scenario id), so cells never perturb each
// other and sub-grids reproduce full-grid cells exactly.
MatrixReport run_matrix(const MatrixConfig& config);

}  // namespace acdc::exp
