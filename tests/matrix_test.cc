// The head-to-head CC matrix (src/exp/matrix.h): structural checks on the
// report, and the determinism contract — the same seed produces a
// byte-identical JSON report on a rerun and on the 2-shard parallel
// engine. Kept to a 2x2 sub-grid with the quick sizing so the suite stays
// fast; the full grid runs in tools/acdc_matrix and CI's matrix-smoke job.
#include <string>

#include <gtest/gtest.h>

#include "exp/matrix.h"
#include "testlib/seed.h"

namespace acdc::exp {
namespace {

MatrixConfig small_config(std::uint64_t seed) {
  MatrixConfig config;
  config.seed = seed;
  config.ccs = {vswitch::VccKind::kDctcp, vswitch::VccKind::kPowerTcp};
  config.scenarios = {MatrixScenario::kIncast, MatrixScenario::kChurn};
  return config.quick();
}

TEST(MatrixTest, ReportIsStructurallySound) {
  const MatrixConfig config = small_config(testlib::test_seed(0x3A781));
  const MatrixReport report = run_matrix(config);
  ASSERT_EQ(report.cells.size(), 4u);
  for (const CellResult& c : report.cells) {
    EXPECT_GT(c.fct_count, 0u) << to_string(c.cc) << "/" << to_string(c.scenario);
    EXPECT_GT(c.fct_p99_ms, 0.0);
    EXPECT_GE(c.fct_p99_ms, c.fct_p50_ms);
    EXPECT_GT(c.windows_lowered, 0);
    EXPECT_GT(c.delivered_bytes, 0);
    EXPECT_GE(c.fairness, 0.0);
    EXPECT_LE(c.fairness, 1.0 + 1e-9);
    EXPECT_NE(c.digest, 0u);
  }
  // Every requested cell is addressable, and cell seeds are distinct.
  for (vswitch::VccKind cc : config.ccs) {
    for (MatrixScenario sc : config.scenarios) {
      ASSERT_NE(report.cell(cc, sc), nullptr);
    }
  }
  EXPECT_NE(report.cells[0].cell_seed, report.cells[1].cell_seed);
  // Render paths produce non-trivial output.
  EXPECT_NE(report.to_json().find("\"schema\": \"acdc-matrix-v1\""),
            std::string::npos);
  EXPECT_NE(report.to_csv().find("cc,scenario"), std::string::npos);
  EXPECT_FALSE(report.to_table().empty());
}

TEST(MatrixTest, SameSeedSameBytesOnRerun) {
  const MatrixConfig config = small_config(testlib::test_seed(0x3A782));
  const MatrixReport a = run_matrix(config);
  const MatrixReport b = run_matrix(config);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(MatrixTest, SerialAndTwoShardReportsAreByteIdentical) {
  const MatrixConfig serial = small_config(testlib::test_seed(0x3A783));
  MatrixConfig sharded = serial;
  sharded.shards = 2;
  sharded.threads = 2;
  const MatrixReport a = run_matrix(serial);
  const MatrixReport b = run_matrix(sharded);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(MatrixTest, SubGridReproducesFullGridCells) {
  // Cell seeds mix CC/scenario identifiers, not grid positions: a pruned
  // grid must reproduce the full grid's cells bit-for-bit (what lets CI's
  // 2x2 smoke stand in for the full matrix).
  const std::uint64_t seed = testlib::test_seed(0x3A784);
  MatrixConfig full = small_config(seed);
  MatrixConfig pruned = full;
  pruned.ccs = {vswitch::VccKind::kPowerTcp};
  pruned.scenarios = {MatrixScenario::kChurn};
  const MatrixReport big = run_matrix(full);
  const MatrixReport one = run_matrix(pruned);
  ASSERT_EQ(one.cells.size(), 1u);
  const CellResult* match =
      big.cell(vswitch::VccKind::kPowerTcp, MatrixScenario::kChurn);
  ASSERT_NE(match, nullptr);
  EXPECT_EQ(match->digest, one.cells[0].digest);
  EXPECT_EQ(match->cell_seed, one.cells[0].cell_seed);
}

TEST(MatrixTest, ServiceScenarioIsSoundAndShardInvariant) {
  // The closed-loop service cell (leaf-spine, 3 tiers, quick-scale user
  // population): structurally sound — requests flowed, latencies ordered,
  // enforcement engaged — and byte-identical serial vs 2-shard, like every
  // other scenario.
  MatrixConfig config;
  config.seed = testlib::test_seed(0x3A785);
  config.ccs = {vswitch::VccKind::kDctcp};
  config.scenarios = {MatrixScenario::kService};
  config = config.quick();
  MatrixConfig sharded = config;
  sharded.shards = 2;
  sharded.threads = 2;

  const MatrixReport serial = run_matrix(config);
  ASSERT_EQ(serial.cells.size(), 1u);
  const CellResult& c = serial.cells[0];
  EXPECT_GT(c.fct_count, 0u) << "no request terminated";
  EXPECT_GT(c.fct_p50_ms, 0.0);
  EXPECT_GE(c.fct_p99_ms, c.fct_p50_ms);
  EXPECT_GT(c.delivered_bytes, 0);
  EXPECT_GT(c.windows_lowered, 0) << "virtual CC never enforced";
  EXPECT_GE(c.fairness, 0.0);
  EXPECT_LE(c.fairness, 1.0 + 1e-9);

  const MatrixReport par = run_matrix(sharded);
  EXPECT_EQ(serial.to_json(), par.to_json());
  EXPECT_EQ(serial.digest(), par.digest());
}

TEST(MatrixTest, ScenarioNamesRoundTrip) {
  // Every scenario's name parses back to it at the CLI edge (acdc_matrix
  // --scenarios), as does the `mixed` alias; anything else is rejected.
  for (MatrixScenario sc :
       {MatrixScenario::kIncast, MatrixScenario::kShuffle,
        MatrixScenario::kChurn, MatrixScenario::kMixedTenant,
        MatrixScenario::kService}) {
    EXPECT_EQ(matrix_scenario_from_string(to_string(sc)), sc) << to_string(sc);
  }
  EXPECT_EQ(matrix_scenario_from_string("mixed"), MatrixScenario::kMixedTenant);
  EXPECT_EQ(matrix_scenario_from_string("bogus"), std::nullopt);
  EXPECT_EQ(matrix_scenario_from_string("?"), std::nullopt);
}

}  // namespace
}  // namespace acdc::exp
