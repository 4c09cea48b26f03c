// Quickstart: enforce DCTCP from the vSwitch over an unmodified CUBIC
// tenant.
//
// Builds the smallest interesting setup — two servers and one ECN switch —
// sends 64MB from a plain CUBIC "VM" stack, and shows what the AC/DC
// vSwitch did: the flow entries it tracked, the PACK feedback it moved, the
// windows it enforced, and the fact that the tenant stack never saw a
// single ECN signal.
//
// Also demonstrates the observability layer: the run is captured by the
// flight recorder and dumped as quickstart.trace.jsonl (one JSON object
// per datapath event), quickstart.trace.json (open in chrome://tracing or
// https://ui.perfetto.dev) and quickstart.metrics.csv.
//
//   $ ./examples/quickstart [tenant-cc]     # e.g. ./examples/quickstart reno
#include <cstdio>
#include <string>

#include "acdc/vswitch.h"
#include "exp/mode.h"
#include "exp/star.h"
#include "obs/export.h"

using namespace acdc;

int main(int argc, char** argv) {
  // The CLI is the only place CC names exist as strings; everything past
  // this parse speaks tcp::CcId.
  tcp::CcId tenant_cc = tcp::CcId::kCubic;
  if (argc > 1) {
    if (auto parsed = tcp::parse_cc_id(argv[1])) {
      tenant_cc = *parsed;
    } else {
      std::fprintf(stderr,
                   "unknown congestion control '%s' (valid: %s)\n", argv[1],
                   std::string(tcp::valid_cc_names()).c_str());
      return 2;
    }
  }
  // A two-host "datacenter": hosts h0/h1 on one switch with DCTCP-style
  // WRED/ECN marking (the AC/DC deployment model: switches mark, vSwitches
  // do the rest).
  exp::StarConfig cfg;
  cfg.scenario = exp::scenario_config_for(exp::Mode::kAcdc);
  cfg.hosts = 2;
  exp::Star star(cfg);
  exp::Scenario& s = star.scenario();

  // Record everything the datapath does: RWND enforcement, ECN hide/strip,
  // PACK/FACK feedback, queue occupancy, tenant cwnd — plus periodic
  // counter snapshots.
  obs::FlightRecorder& rec = s.enable_tracing();

  // Drop an AC/DC vSwitch into each server's datapath. No VM changes: the
  // tenant stack below stays stock CUBIC without ECN.
  vswitch::AcdcVswitch* sender_vs = s.attach_acdc(star.host(0), {});
  s.attach_acdc(star.host(1), {});

  // The tenant's transfer: 64MB from the chosen stack, h0 -> h1.
  const tcp::TcpConfig tenant = s.tcp_config(tenant_cc);
  host::BulkApp* app = s.add_bulk_flow(star.host(0), star.host(1), tenant, 0,
                                       64 * 1024 * 1024);
  // And a latency probe sharing the path.
  host::EchoApp* probe = s.add_rtt_probe(star.host(0), star.host(1), tenant,
                                         sim::milliseconds(1),
                                         sim::milliseconds(1));

  // Run until the transfer completes (so the probe's RTT samples describe
  // the congested path, not an idle one).
  while (!app->completed() && s.simulator().now() < sim::seconds(5)) {
    s.run_until(s.simulator().now() + sim::milliseconds(5));
  }

  std::printf("Transferred:        %lld bytes (%s)\n",
              static_cast<long long>(app->delivered_bytes()),
              app->completed() ? "complete" : "still running");
  if (app->completed()) {
    std::printf("Completion time:    %.1f ms  (~%.2f Gbps)\n",
                sim::to_milliseconds(app->completion_time()),
                64.0 * 8 / 1024 /
                    sim::to_seconds(app->completion_time()));
  }
  std::printf("Median probe RTT:   %.3f ms\n", probe->rtt_ms().median());

  const vswitch::AcdcStats& st = sender_vs->stats();
  std::printf("\nWhat the sender-side vSwitch did:\n");
  std::printf("  flow entries tracked:     %zu\n", sender_vs->flows().size());
  std::printf("  data packets marked ECT:  %lld\n",
              static_cast<long long>(st.egress_data_packets));
  std::printf("  ACKs processed:           %lld\n",
              static_cast<long long>(st.acks_processed));
  std::printf("  RWNDs lowered (enforced): %lld\n",
              static_cast<long long>(st.windows_lowered));

  const tcp::TcpConnection* conn = app->sender_connection();
  std::printf("\nWhat the tenant saw:\n");
  std::printf("  ECN reductions in the VM stack: %lld (AC/DC hides ECN)\n",
              static_cast<long long>(conn->stats().ecn_reductions));
  std::printf("  peer receive window now:        %lld bytes "
              "(= AC/DC's DCTCP window)\n",
              static_cast<long long>(conn->peer_rwnd_bytes()));

  // Dump the flight recorder: JSONL for jq/pandas, Chrome trace-event JSON
  // for chrome://tracing / Perfetto, CSV for the metrics snapshots. The
  // exporters take a merged trace, so the same code serves sharded runs.
  const obs::MergedTrace trace = obs::merge_recorders(s.recorders());
  obs::write_trace_jsonl_file(trace, "quickstart.trace.jsonl");
  obs::write_chrome_trace_file(trace, s.metrics(), "quickstart.trace.json");
  obs::write_metrics_csv_file(*s.metrics(), "quickstart.metrics.csv");
  std::printf("\nTrace: %lld events recorded (%lld overwritten)\n",
              static_cast<long long>(rec.recorded_events()),
              static_cast<long long>(rec.overwritten_events()));
  std::printf("  wrote quickstart.trace.jsonl, quickstart.trace.json "
              "(chrome://tracing), quickstart.metrics.csv\n");
  std::printf("  RWND enforcements traced: %zu, ECN marks stripped: %zu\n",
              rec.count(obs::EventType::kWindowEnforced),
              rec.count(obs::EventType::kEcnStrip));
  return 0;
}
