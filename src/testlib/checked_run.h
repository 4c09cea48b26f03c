// One checked run of a built exp::Scenario: the wiring every invariant-
// checked harness shares (the fuzz harness's run_plan and both soaks).
// It owns tracing, one event-stream digest and one InvariantChecker per
// shard, the tap -> vSwitch -> tap order around every AC/DC host, the
// end-of-run audits, the summary and the failure artifacts, so a new law
// or audit reaches every checked run at once.
//
//   exp::Scenario& scn = ...;       // topology built, enable_parallel done
//   CheckedRun checked(scn, std::size_t{1} << 14);
//   vswitch::AcdcVswitch* vs = checked.attach_acdc(host, acdc_config);
//   ... add apps, run ...
//   checked.audit(switches, hosts);
//   const CheckSummary s = checked.summary();
//   if (s.violation_count > 0) checked.write_artifacts(base);
//
// Single-writer shards: each shard's digest and checker are touched only
// by that shard's thread while the scenario runs. Declare the CheckedRun
// after the scenario so it is destroyed first.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.h"
#include "sim/hash.h"
#include "testlib/invariants.h"

namespace acdc::testlib {

// FNV-1a 64-bit (sim::fnv1a_word), mixed 8 bytes at a time.
struct Digest {
  std::uint64_t h = sim::kFnvOffsetBasis;

  void mix(std::uint64_t v) { h = sim::fnv1a_word(h, v); }
  // t, type, source, the two IPs, the two ports, a, b and the bits of x.
  void mix_event(const obs::TraceEvent& ev);
};

struct CheckSummary {
  std::uint64_t event_digest = 0;  // the shards' digests, folded in order
  std::uint64_t events = 0;        // recorded across every shard
  std::uint64_t packets_checked = 0;
  std::vector<std::string> violations;  // the first few, in shard order
  std::uint64_t violation_count = 0;
};

class CheckedRun {
 public:
  // Turns tracing on with `ring_capacity` events per shard and subscribes
  // each shard's digest and checker to its recorder. Call after
  // enable_parallel and before any vSwitch or app exists.
  CheckedRun(exp::Scenario& scenario, std::size_t ring_capacity);
  // The recorders' listeners hold pointers into this run's digests.
  CheckedRun(const CheckedRun&) = delete;
  CheckedRun& operator=(const CheckedRun&) = delete;

  // VM tap, Scenario::attach_acdc, wire tap, all on the host's shard
  // checker; the flow-table audit names the vSwitch `acdc.<host>`.
  vswitch::AcdcVswitch* attach_acdc(host::Host* h,
                                    const vswitch::AcdcConfig& config);

  // A harness-specific violation, reported by shard 0's checker.
  void fail(const std::string& message) { checkers_[0]->fail(message); }

  // End-of-run audits on shard 0's checker: every attached vSwitch's flow
  // table, each switch's port queues, each host's NIC queue, and FACK
  // balance unless the scenario's links duplicate packets.
  void audit(const std::vector<net::Switch*>& switches,
             const std::vector<host::Host*>& hosts);

  CheckSummary summary() const;

  // `<base>.trace.json` (the shards' rings merged into one Chrome trace)
  // and `<base>.forensics.txt` (latency forensics over the same stream).
  void write_artifacts(const std::string& base) const;

 private:
  exp::Scenario& scenario_;
  std::vector<obs::FlightRecorder*> recorders_;
  std::vector<Digest> digests_;  // sized once: listeners hold pointers
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
  std::vector<std::pair<host::Host*, vswitch::AcdcVswitch*>> acdc_;
};

}  // namespace acdc::testlib
