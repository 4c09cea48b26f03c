// Deterministic scenario fuzzer driver.
//
//   fuzz_scenarios --seed N --iters K [--differential-every D]
//                  [--no-drop] [--no-dup] [--no-reorder] [--no-jitter]
//                  [--no-churn] [--no-arsenal] [--no-service]
//                  [--horizon-ms M]
//                  [--artifact-dir DIR] [--quiet] [--shards S] [--threads T]
//                  [--batch H]
//
// --shards S (S > 1) partitions every sampled topology and runs it on the
// parallel engine with T worker threads (default: one per shard); results
// must be identical to the serial engine, so all the oracles stay valid.
// --batch H sets the cross-shard handoff batch depth (1 = unbatched), a
// pure scheduling knob, so digests must not depend on it either.
//
// Iteration i runs the scenario sampled from seed N+i under the full
// invariant harness; every D-th passing seed is additionally replayed with
// the AC/DC datapath removed to check transparency (differential oracle).
//
// Each seed prints its event digest, app digest, event count and packets
// checked (unless --quiet), and the final `ok:` line carries one digest
// folded over those in seed order, so two builds' outputs `diff` clean
// exactly when every run agrees.
//
// On failure the driver shrinks the scenario by greedily toggling fault
// classes — and the churn and closed-loop service workloads — off (each
// draws from independent RNG substreams, so masking one leaves the others
// bit-identical), prints a single-line repro command,
// and — when --artifact-dir is given — writes the failure report plus the
// failing run's Chrome trace and latency-forensics report.
//
// Exit code: 0 = all seeds passed, 1 = a failing seed was found,
// 2 = bad usage.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "testlib/checked_run.h"
#include "testlib/scenario_gen.h"
#include "testlib/seed.h"

namespace {

using acdc::testlib::DifferentialOutcome;
using acdc::testlib::Digest;
using acdc::testlib::FaultToggles;
using acdc::testlib::RunOptions;
using acdc::testlib::RunOutcome;
using acdc::testlib::ScenarioPlan;

struct DriverOptions {
  std::uint64_t seed = 1;
  int iters = 200;
  int differential_every = 5;  // 0 disables the oracle
  FaultToggles toggles;
  std::int64_t horizon_ms = 60'000;
  std::string artifact_dir;
  bool quiet = false;
  int shards = 0;   // > 1: run on the parallel engine
  int threads = 0;  // 0 -> one per shard
  int batch = 0;    // cross-shard handoff batch depth; 0 = engine default
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--iters K] [--differential-every D]\n"
      "          [--no-drop] [--no-dup] [--no-reorder] [--no-jitter]\n"
      "          [--no-churn] [--no-arsenal] [--no-service]\n"
      "          [--horizon-ms M]\n"
      "          [--artifact-dir DIR] [--quiet] [--shards S] [--threads T]\n"
      "          [--batch H]\n"
      "ACDC_TEST_SEED overrides the default --seed.\n",
      argv0);
}

bool parse_args(int argc, char** argv, DriverOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](std::int64_t& out) {
      if (i + 1 >= argc) return false;
      out = std::strtoll(argv[++i], nullptr, 0);
      return true;
    };
    std::int64_t v = 0;
    if (arg == "--seed" && next_value(v)) {
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--iters" && next_value(v)) {
      opt.iters = static_cast<int>(v);
    } else if (arg == "--differential-every" && next_value(v)) {
      opt.differential_every = static_cast<int>(v);
    } else if (arg == "--horizon-ms" && next_value(v)) {
      opt.horizon_ms = v;
    } else if (arg == "--shards" && next_value(v)) {
      opt.shards = static_cast<int>(v);
    } else if (arg == "--threads" && next_value(v)) {
      opt.threads = static_cast<int>(v);
    } else if (arg == "--batch" && next_value(v)) {
      opt.batch = static_cast<int>(v);
    } else if (arg == "--no-drop") {
      opt.toggles.drop = false;
    } else if (arg == "--no-dup") {
      opt.toggles.dup = false;
    } else if (arg == "--no-reorder") {
      opt.toggles.reorder = false;
    } else if (arg == "--no-jitter") {
      opt.toggles.jitter = false;
    } else if (arg == "--no-churn") {
      opt.toggles.churn = false;
    } else if (arg == "--no-arsenal") {
      opt.toggles.arsenal = false;
    } else if (arg == "--no-service") {
      opt.toggles.service = false;
    } else if (arg == "--artifact-dir" && i + 1 < argc) {
      opt.artifact_dir = argv[++i];
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  return true;
}

RunOptions run_options(const DriverOptions& opt) {
  RunOptions ro;
  ro.horizon = acdc::sim::milliseconds(opt.horizon_ms);
  ro.shards = opt.shards;
  ro.threads = opt.threads;
  ro.handoff_batch = opt.batch;
  return ro;
}

// One fuzz iteration; fills `failure` with a human-readable report on
// failure and, when given, `outcome` with the checked run's outcome.
bool run_seed(std::uint64_t seed, const DriverOptions& opt,
              const FaultToggles& toggles, bool with_differential,
              std::vector<std::string>* failure,
              RunOutcome* outcome = nullptr) {
  ScenarioPlan plan = acdc::testlib::make_plan(seed);
  acdc::testlib::mask_faults(plan, toggles);
  const RunOutcome out = acdc::testlib::run_plan(plan, run_options(opt));
  if (outcome != nullptr) *outcome = out;
  bool ok = out.ok();
  if (!ok && failure != nullptr) {
    failure->push_back("plan: " + plan.summary());
    if (!out.completed) {
      failure->push_back("run did not quiesce within the horizon");
    }
    failure->push_back("violations: " +
                       std::to_string(out.violation_count));
    for (const std::string& v : out.violations) {
      failure->push_back("  " + v);
    }
  }
  if (ok && with_differential) {
    const DifferentialOutcome diff =
        acdc::testlib::run_differential(plan, run_options(opt));
    if (!diff.ok()) {
      ok = false;
      if (failure != nullptr) {
        failure->push_back("plan: " + plan.summary());
        failure->push_back("differential oracle failed:");
        for (const std::string& v : diff.violations) {
          failure->push_back("  " + v);
        }
        for (const std::string& v : diff.baseline.violations) {
          failure->push_back("  [baseline] " + v);
        }
      }
    }
  }
  return ok;
}

std::string repro_command(std::uint64_t seed, const FaultToggles& t,
                          const DriverOptions& opt) {
  std::string cmd = "fuzz_scenarios --seed " + std::to_string(seed) +
                    " --iters 1 --differential-every " +
                    std::to_string(opt.differential_every);
  if (!t.drop) cmd += " --no-drop";
  if (!t.dup) cmd += " --no-dup";
  if (!t.reorder) cmd += " --no-reorder";
  if (!t.jitter) cmd += " --no-jitter";
  if (!t.churn) cmd += " --no-churn";
  if (!t.arsenal) cmd += " --no-arsenal";
  if (!t.service) cmd += " --no-service";
  if (opt.shards > 0) cmd += " --shards " + std::to_string(opt.shards);
  if (opt.threads > 0) cmd += " --threads " + std::to_string(opt.threads);
  if (opt.batch > 0) cmd += " --batch " + std::to_string(opt.batch);
  return cmd;
}

// Greedy shrink: try disabling each still-enabled fault class; keep it
// disabled when the failure reproduces without it.
FaultToggles shrink(std::uint64_t seed, const DriverOptions& opt,
                    FaultToggles toggles, bool with_differential) {
  bool* const classes[] = {&toggles.drop,  &toggles.dup,
                           &toggles.reorder, &toggles.jitter,
                           &toggles.churn,   &toggles.arsenal,
                           &toggles.service};
  const char* const names[] = {"drop",  "dup",     "reorder", "jitter",
                               "churn", "arsenal", "service"};
  for (std::size_t c = 0; c < std::size(classes); ++c) {
    if (!*classes[c]) continue;
    *classes[c] = false;
    if (run_seed(seed, opt, toggles, with_differential, nullptr)) {
      *classes[c] = true;  // that class is needed to reproduce
    } else if (!opt.quiet) {
      std::printf("  shrink: still fails with %s masked\n", names[c]);
    }
  }
  return toggles;
}

void write_artifacts(std::uint64_t seed, const DriverOptions& opt,
                     const FaultToggles& toggles,
                     const std::vector<std::string>& report) {
  if (opt.artifact_dir.empty()) return;
  const std::string base =
      opt.artifact_dir + "/fuzz_seed_" + std::to_string(seed);

  std::ofstream txt(base + ".txt");
  if (txt) {
    txt << "failing seed: " << seed << "\n";
    txt << "repro: " << repro_command(seed, toggles, opt) << "\n\n";
    for (const std::string& line : report) txt << line << "\n";
  }

  // Replay once more with trace capture for the Chrome-trace and
  // latency-forensics artifacts.
  ScenarioPlan plan = acdc::testlib::make_plan(seed);
  acdc::testlib::mask_faults(plan, toggles);
  RunOptions ro = run_options(opt);
  ro.artifact_base = base;
  acdc::testlib::run_plan(plan, ro);
  std::printf("artifacts: %s.txt, %s.trace.json, %s.forensics.txt\n",
              base.c_str(), base.c_str(), base.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  DriverOptions opt;
  opt.seed = acdc::testlib::test_seed(opt.seed);
  if (!parse_args(argc, argv, opt)) return 2;

  Digest digests;  // every seed's four outcome words, in seed order
  for (int i = 0; i < opt.iters; ++i) {
    const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(i);
    const bool with_differential =
        opt.differential_every > 0 && i % opt.differential_every == 0;
    std::vector<std::string> report;
    RunOutcome out;
    const bool ok =
        run_seed(seed, opt, opt.toggles, with_differential, &report, &out);
    digests.mix(out.event_digest);
    digests.mix(out.app_digest);
    digests.mix(out.events);
    digests.mix(out.packets_checked);
    if (!opt.quiet) {
      std::printf("seed %llu: event_digest %016llx app_digest %016llx "
                  "events %llu packets_checked %llu\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(out.event_digest),
                  static_cast<unsigned long long>(out.app_digest),
                  static_cast<unsigned long long>(out.events),
                  static_cast<unsigned long long>(out.packets_checked));
    }
    if (ok) {
      if (!opt.quiet && (i + 1) % 50 == 0) {
        std::printf("... %d/%d seeds ok\n", i + 1, opt.iters);
      }
      continue;
    }

    std::printf("FAIL seed %llu\n",
                static_cast<unsigned long long>(seed));
    for (const std::string& line : report) {
      std::printf("  %s\n", line.c_str());
    }
    const FaultToggles minimal =
        shrink(seed, opt, opt.toggles, with_differential);
    std::printf("repro: %s\n", repro_command(seed, minimal, opt).c_str());
    write_artifacts(seed, opt, minimal, report);
    return 1;
  }

  std::printf("ok: %d seeds passed (base seed %llu%s), digest %016llx\n",
              opt.iters, static_cast<unsigned long long>(opt.seed),
              opt.differential_every > 0 ? ", differential oracle sampled"
                                         : "",
              static_cast<unsigned long long>(digests.h));
  return 0;
}
