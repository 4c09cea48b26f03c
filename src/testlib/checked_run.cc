#include "testlib/checked_run.h"

#include <bit>

#include "forensics/delay_analyzer.h"
#include "forensics/report.h"
#include "obs/export.h"
#include "obs/merge.h"

namespace acdc::testlib {

void Digest::mix_event(const obs::TraceEvent& ev) {
  mix(static_cast<std::uint64_t>(ev.t));
  mix(static_cast<std::uint64_t>(ev.type));
  mix(ev.source);
  mix((static_cast<std::uint64_t>(ev.src_ip) << 32) | ev.dst_ip);
  mix((static_cast<std::uint64_t>(ev.src_port) << 16) | ev.dst_port);
  mix(static_cast<std::uint64_t>(ev.a));
  mix(static_cast<std::uint64_t>(ev.b));
  mix(std::bit_cast<std::uint64_t>(ev.x));
}

CheckedRun::CheckedRun(exp::Scenario& scenario, std::size_t ring_capacity)
    : scenario_(scenario) {
  scenario.enable_tracing(ring_capacity, /*metrics_interval=*/0);
  recorders_ = scenario.recorders();
  digests_.resize(recorders_.size());
  for (std::size_t s = 0; s < recorders_.size(); ++s) {
    Digest* digest = &digests_[s];
    recorders_[s]->add_listener(
        [digest](const obs::TraceEvent& ev) { digest->mix_event(ev); });
    checkers_.push_back(std::make_unique<InvariantChecker>());
    checkers_[s]->subscribe(*recorders_[s]);
  }
}

vswitch::AcdcVswitch* CheckedRun::attach_acdc(
    host::Host* h, const vswitch::AcdcConfig& config) {
  InvariantChecker& checker =
      *checkers_[static_cast<std::size_t>(scenario_.shard_of(h))];
  h->add_filter(checker.vm_tap(h->name()));
  vswitch::AcdcVswitch* vs = scenario_.attach_acdc(h, config);
  h->add_filter(checker.wire_tap(h->name()));
  acdc_.emplace_back(h, vs);
  return vs;
}

void CheckedRun::audit(const std::vector<net::Switch*>& switches,
                       const std::vector<host::Host*>& hosts) {
  InvariantChecker& checker = *checkers_[0];
  std::vector<vswitch::AcdcVswitch*> vswitches;
  for (const auto& [h, vs] : acdc_) {
    checker.check_flow_table("acdc." + h->name(), *vs);
    vswitches.push_back(vs);
  }
  for (const net::Switch* sw : switches) checker.check_switch(*sw);
  for (host::Host* h : hosts) {
    checker.check_queue(h->name() + ".nic", h->nic().tx_port().queue());
  }
  // A duplicated FACK is consumed twice, so the balance holds only on
  // fabrics that never duplicate.
  if (scenario_.config().link_faults.dup_p == 0.0) {
    checker.check_fack_balance(vswitches);
  }
}

CheckSummary CheckedRun::summary() const {
  CheckSummary out;
  Digest combined;
  for (std::size_t s = 0; s < recorders_.size(); ++s) {
    combined.mix(digests_[s].h);
    out.events += recorders_[s]->recorded_events();
    const InvariantChecker& c = *checkers_[s];
    for (const std::string& v : c.violations()) {
      if (out.violations.size() < kMaxReportedViolations) {
        out.violations.push_back(v);
      }
    }
    out.violation_count += c.violation_count();
    out.packets_checked += c.packets_checked();
  }
  out.event_digest = combined.h;
  return out;
}

void CheckedRun::write_artifacts(const std::string& base) const {
  const obs::MergedTrace merged = obs::merge_recorders(recorders_);
  obs::write_chrome_trace_file(merged, scenario_.metrics(),
                               base + ".trace.json");
  forensics::write_text_file(forensics::DelayAnalyzer::analyze(merged),
                             base + ".forensics.txt");
}

}  // namespace acdc::testlib
