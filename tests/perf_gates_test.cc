// Pins every acdc_perf --check gate: threshold, frozen baseline value and
// arming condition, plus the occupancy sweep's retry count. Each case
// starts from a report that passes every gate, sets one number to the
// lowest (or highest) printable value that passes, then one step past it,
// where exactly that gate must fire. Numbers carry the decimals acdc_perf
// prints them with, so a step is one unit in the last printed place.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "perf_report.h"

namespace acdc::bench {
namespace {

using Values = std::map<std::string, double>;

// A healthy quick run on a 4-thread box, with `changed` applied on top.
// `sweep` gives the service section the full run's three arms.
PerfReport report(const Values& changed = {}, bool sweep = false) {
  PerfReport r;
  auto put = [&changed](Section& s, const std::string& key, double value,
                        int decimals) {
    const auto it = changed.find(key);
    s.put(key, it != changed.end() ? it->second : value, decimals);
  };
  put(r.current, "packets_per_sec", 12'000'000, 0);
  put(r.current, "allocs_per_packet_steady", 0, 4);
  put(r.current, "multiflow_packets_per_sec", 10'000'000, 0);
  put(r.current, "events_per_sec", 25'000'000, 0);
  put(r.current, "tracing_overhead_pct", 5, 2);
  put(r.current, "hw_threads", 4, 0);
  put(r.current, "parallel_events_per_sec_serial", 3'000'000, 0);
  put(r.current, "parallel_events_per_sec_t1", 3'000'000, 0);
  put(r.current, "parallel_speedup_t8", 0.9, 3);
  put(r.churn, "churn_flows_per_sec_wall", 45'000, 0);
  put(r.churn, "churn_table_peak", 2'048, 0);
  put(r.churn, "churn_table_cap", 2'048, 0);
  put(r.churn, "churn_gc_removed", 16'904, 0);
  put(r.churn, "churn_evictions", 107'343, 0);
  put(r.multiflow, "ratio_1m_10k", 0.81, 3);
  put(r.service, "service_sweep", sweep ? 1 : 0, 0);
  const std::vector<std::string> arms =
      sweep ? std::vector<std::string>{"", "_10k", "_100k", "_1m"}
            : std::vector<std::string>{""};
  for (const std::string& arm : arms) {
    put(r.service, "service_drained" + arm, 1, 0);
    put(r.service, "service_deadline_misses" + arm, 0, 0);
    put(r.service, "service_slo_violations" + arm, 0, 0);
  }
  return r;
}

// `key` at `passing` (on top of `base`) fires nothing; at `failing`
// exactly one gate fires, and its message starts with `gate`.
void expect_gate(const std::string& key, double passing, double failing,
                 const std::string& gate, Values base = {},
                 bool sweep = false) {
  base[key] = passing;
  EXPECT_EQ(failed_gates(report(base, sweep)), std::vector<std::string>{})
      << key << " = " << passing;
  base[key] = failing;
  const std::vector<std::string> failed = failed_gates(report(base, sweep));
  ASSERT_EQ(failed.size(), 1u) << key << " = " << failing;
  EXPECT_EQ(failed[0].rfind(gate, 0), 0u) << failed[0];
}

TEST(PerfGates, HealthyReportPasses) {
  EXPECT_TRUE(failed_gates(report()).empty());
  EXPECT_TRUE(failed_gates(report({}, /*sweep=*/true)).empty());
}

TEST(PerfGates, ThroughputHoldsEightyPercentOfFrozenBaseline) {
  // 0.8 x 8,830,671 / 6,463,681 / 3,828,370 (commit 45e8b50).
  expect_gate("packets_per_sec", 7'064'537, 7'064'536, "packets_per_sec:");
  expect_gate("multiflow_packets_per_sec", 5'170'945, 5'170'944,
              "multiflow_packets_per_sec:");
  expect_gate("events_per_sec", 3'062'696, 3'062'695, "events_per_sec:");
}

TEST(PerfGates, SteadyStateStaysAllocationFree) {
  expect_gate("allocs_per_packet_steady", 0.01, 0.0101,
              "allocs_per_packet_steady");
}

TEST(PerfGates, OneWorkerThreadHoldsEightyFivePercentOfSerial) {
  expect_gate("parallel_events_per_sec_t1", 2'550'000, 2'549'999,
              "parallel_events_per_sec_t1");
  // Unarmed when either rate is missing.
  EXPECT_TRUE(
      failed_gates(report({{"parallel_events_per_sec_t1", 0}})).empty());
}

TEST(PerfGates, EightThreadSpeedupArmsAtEightHardwareThreads) {
  expect_gate("parallel_speedup_t8", 4.0, 3.999, "parallel_speedup_t8",
              {{"hw_threads", 8}});
  EXPECT_TRUE(
      failed_gates(report({{"hw_threads", 7}, {"parallel_speedup_t8", 0}}))
          .empty());
}

TEST(PerfGates, ChurnHoldsEightyPercentOfFrozenBaseline) {
  // 0.8 x 48,000 flows/s (commit 700e563).
  expect_gate("churn_flows_per_sec_wall", 38'400, 38'399,
              "churn_flows_per_sec_wall");
}

TEST(PerfGates, ChurnTableStaysWithinItsCap) {
  expect_gate("churn_table_peak", 2'048, 2'049, "churn_table_peak");
}

TEST(PerfGates, ChurnRemovesFlowTableState) {
  expect_gate("churn_gc_removed", 1, 0, "churn removed no flow-table state",
              {{"churn_evictions", 0}});
  expect_gate("churn_evictions", 1, 0, "churn removed no flow-table state",
              {{"churn_gc_removed", 0}});
}

TEST(PerfGates, OneMillionFlowsHoldSeventyPercentOfTenThousand) {
  expect_gate("ratio_1m_10k", 0.7, 0.699, "multiflow ratio_1m_10k");
}

TEST(PerfGates, EveryServiceArmDrainsWithoutMissesOrViolations) {
  for (const bool sweep : {false, true}) {
    const std::vector<std::string> arms =
        sweep ? std::vector<std::string>{"_10k", "_100k", "_1m"}
              : std::vector<std::string>{""};
    for (const std::string& arm : arms) {
      expect_gate("service_drained" + arm, 1, 0, "service" + arm + " tier",
                  {}, sweep);
      expect_gate("service_deadline_misses" + arm, 0, 1,
                  "service_deadline_misses" + arm, {}, sweep);
      expect_gate("service_slo_violations" + arm, 0, 1,
                  "service_slo_violations" + arm, {}, sweep);
    }
  }
}

TEST(PerfGates, TracingCostsAtMostTenPercent) {
  expect_gate("tracing_overhead_pct", 10.0, 10.01, "tracing_overhead_pct");
}

// A rerun that reports the next ratio from `ratios` and counts calls.
struct FakeSweep {
  std::vector<double> ratios;
  int runs = 0;
  Section operator()() {
    Section s;
    s.put("ratio_1m_10k", ratios[static_cast<std::size_t>(runs++)], 3);
    return s;
  }
};

Section sweep_at(double ratio) {
  Section s;
  s.put("ratio_1m_10k", ratio, 3);
  return s;
}

TEST(PerfGates, OccupancySweepRetriesTwiceAndKeepsTheBest) {
  FakeSweep passing{{}};
  EXPECT_EQ(retry_occupancy_sweep(sweep_at(0.7), std::ref(passing))
                .num("ratio_1m_10k"),
            0.7);
  EXPECT_EQ(passing.runs, 0);

  FakeSweep recovers{{0.72}};
  EXPECT_EQ(retry_occupancy_sweep(sweep_at(0.65), std::ref(recovers))
                .num("ratio_1m_10k"),
            0.72);
  EXPECT_EQ(recovers.runs, 1);

  FakeSweep stays_low{{0.69, 0.68, 0.99}};
  EXPECT_EQ(retry_occupancy_sweep(sweep_at(0.65), std::ref(stays_low))
                .num("ratio_1m_10k"),
            0.69);
  EXPECT_EQ(stays_low.runs, 2);
}

}  // namespace
}  // namespace acdc::bench
