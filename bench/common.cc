#include "common.h"

#include <cstdio>
#include <cstdlib>

#include "obs/export.h"

namespace acdc::bench {
namespace {

std::string trace_prefix() {
  const char* env = std::getenv("ACDC_TRACE");
  return env != nullptr ? env : "";
}

void maybe_enable_tracing(exp::Scenario& s) {
  if (!trace_prefix().empty()) s.enable_tracing();
}

void maybe_dump_trace(exp::Scenario& s) {
  const std::string prefix = trace_prefix();
  if (prefix.empty() || s.recorder() == nullptr) return;
  // Merge across shards (a cheap copy for serial runs) so the exports are
  // globally time-ordered regardless of shard count; the JSONL feeds
  // tools/acdc_forensics directly.
  const obs::MergedTrace merged = obs::merge_recorders(s.recorders());
  bool ok = obs::write_chrome_trace_file(merged, s.metrics(),
                                         prefix + ".trace.json");
  ok = obs::write_trace_jsonl_file(merged, prefix + ".trace.jsonl") && ok;
  if (s.metrics() != nullptr) {
    ok = obs::write_metrics_csv_file(*s.metrics(), prefix + ".metrics.csv") &&
         ok;
  }
  if (!ok) {
    std::fprintf(stderr, "warning: failed to write trace output to %s.*\n",
                 prefix.c_str());
  }
}

tcp::TcpConfig flow_tcp_config(const exp::Scenario& s, exp::Mode mode,
                               const FlowSpec& flow) {
  // kDctcp pins every host stack to DCTCP (the paper's reference column);
  // the other modes run whatever tenant stack the flow asks for (default
  // CUBIC) — that heterogeneity is the point of Figs. 1/17 and Table 1.
  if (mode == exp::Mode::kDctcp) return s.tcp_config(tcp::CcId::kDctcp);
  return s.tcp_config(flow.cc);
}

}  // namespace

RunResult measure(const RunConfig& cfg, exp::Scenario& s,
                  const std::vector<host::BulkApp*>& apps,
                  const host::EchoApp* probe) {
  RunResult out;
  for (auto* app : apps) {
    out.goodputs_gbps.push_back(
        app->goodput_bps(cfg.measure_from, cfg.duration) / 1e9);
    std::vector<double> series;
    const auto& ts = app->deliveries();
    const auto buckets =
        static_cast<std::size_t>(cfg.duration / ts.interval());
    for (std::size_t i = 0; i < buckets; ++i) {
      series.push_back(i < ts.bucket_count() ? ts.bucket_rate_bps(i) / 1e9
                                             : 0.0);
    }
    out.flow_series_gbps.push_back(std::move(series));
  }
  out.jain = stats::jain_fairness_index(out.goodputs_gbps);
  if (probe != nullptr) out.rtt_ms = probe->rtt_ms();
  out.drop_rate = s.fabric_stats().drop_rate();
  return out;
}

RunResult run_dumbbell(const RunConfig& cfg,
                       const std::vector<FlowSpec>& flows) {
  exp::DumbbellConfig dc;
  dc.scenario = exp::scenario_config_for(cfg.mode, cfg.mtu_bytes, cfg.seed);
  dc.pairs = static_cast<int>(flows.size());
  exp::Dumbbell bell(dc);
  exp::Scenario& s = bell.scenario();
  maybe_enable_tracing(s);

  if (cfg.mode == exp::Mode::kAcdc) {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      auto* vs = s.attach_acdc(bell.sender(static_cast<int>(i)), cfg.acdc);
      s.attach_acdc(bell.receiver(static_cast<int>(i)), cfg.acdc);
      vswitch::FlowPolicy policy = vs->policy().default_policy();
      policy.beta = flows[i].beta;
      vs->policy().set_default(policy);
    }
  }

  std::vector<host::BulkApp*> apps;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const int idx = static_cast<int>(i);
    sim::Time start = flows[i].start;
    if (cfg.start_jitter > 0) {
      start += s.rng().uniform_int(0, cfg.start_jitter);
    }
    auto* app = s.add_bulk_flow(bell.sender(idx), bell.receiver(idx),
                                flow_tcp_config(s, cfg.mode, flows[i]),
                                start);
    if (flows[i].stop != sim::kNoTime) app->stop_at(flows[i].stop);
    apps.push_back(app);
  }

  host::EchoApp* probe = nullptr;
  if (cfg.rtt_probe) {
    probe = s.add_rtt_probe(bell.sender(0), bell.receiver(0),
                            flow_tcp_config(s, cfg.mode, flows[0]),
                            sim::milliseconds(50), cfg.probe_interval);
  }

  s.run_until(cfg.duration);
  RunResult out = measure(cfg, s, apps, probe);
  maybe_dump_trace(s);
  return out;
}

RunResult run_incast(const RunConfig& cfg, int senders) {
  ModeStar star(cfg, senders + 2, /*traced=*/true);  // + probe client
  exp::Scenario& s = star.scenario();

  // The probe connects first (before the fabric saturates); flow starts are
  // staggered by a millisecond each, like real applications coming up.
  host::EchoApp* probe = nullptr;
  if (cfg.rtt_probe) {
    probe = s.add_rtt_probe(star.host(senders + 1), star.host(0), star.tcp,
                            0, cfg.probe_interval);
  }
  std::vector<host::BulkApp*> apps;
  for (int i = 1; i <= senders; ++i) {
    apps.push_back(s.add_bulk_flow(star.host(i), star.host(0), star.tcp,
                                   sim::milliseconds(10) +
                                       (i - 1) * sim::milliseconds(1)));
  }
  s.run_until(cfg.duration);
  RunResult out = measure(cfg, s, apps, probe);
  maybe_dump_trace(s);
  return out;
}

std::string gbps(double g) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", g);
  return buf;
}

std::vector<std::string> scheme_headers(const std::string& first,
                                        const std::string& unit) {
  std::vector<std::string> headers{first};
  for (exp::Mode mode : kSchemes) {
    headers.push_back(exp::to_string(mode) + unit);
  }
  return headers;
}

void print_percentiles(const std::string& title,
                       std::vector<std::string> headers,
                       const std::vector<const stats::Sampler*>& columns,
                       const std::vector<double>& percentiles) {
  stats::Table t(std::move(headers));
  for (double p : percentiles) {
    std::vector<std::string> row{stats::Table::num(p)};
    for (const stats::Sampler* c : columns) {
      // An empty sampler would read 0 at every percentile: it has none.
      row.push_back(c->empty() ? "n/a" : stats::Table::num(c->percentile(p)));
    }
    t.add_row(std::move(row));
  }
  t.print(title);
}

ModeStar::ModeStar(const RunConfig& cfg, int hosts, bool traced)
    : exp::Star(exp::StarConfig{
          .scenario =
              exp::scenario_config_for(cfg.mode, cfg.mtu_bytes, cfg.seed),
          .hosts = hosts}) {
  if (traced) maybe_enable_tracing(scenario());
  std::vector<host::Host*> all;
  for (int i = 0; i < host_count(); ++i) all.push_back(host(i));
  exp::apply_mode(scenario(), all, cfg.mode, cfg.acdc);
  tcp = exp::host_tcp_config(scenario(), cfg.mode);
}

double fairness_panel(const std::string& title, exp::Mode mode,
                      const std::vector<FlowSpec>& flows) {
  stats::Table table({"test", "max", "min", "mean", "median", "jain"});
  stats::Sampler jain;
  for (int test = 1; test <= 10; ++test) {
    const RunResult r = run_dumbbell(repeated_test(mode, test), flows);
    stats::Sampler s;
    for (double g : r.goodputs_gbps) s.add(g);
    table.add_row({std::to_string(test), gbps(s.max()), gbps(s.min()),
                   gbps(s.mean()), gbps(s.median()),
                   stats::Table::num(r.jain)});
    jain.add(r.jain);
  }
  table.print(title);
  return jain.mean();
}

std::vector<WindowSample> track_windows(exp::Mode mode,
                                        const vswitch::AcdcConfig& acdc,
                                        sim::Time duration) {
  exp::DumbbellConfig dc;
  dc.scenario = exp::scenario_config_for(mode, 1500);
  exp::Dumbbell bell(dc);
  exp::Scenario& s = bell.scenario();

  std::vector<vswitch::AcdcVswitch*> vswitches;
  for (int i = 0; i < bell.pairs(); ++i) {
    vswitches.push_back(s.attach_acdc(bell.sender(i), acdc));
    s.attach_acdc(bell.receiver(i), acdc);
  }

  const std::uint32_t mss = s.config().mss();
  tcp::TcpConnection* conn0 = nullptr;
  sim::Time flow_start = sim::kNoTime;
  std::vector<WindowSample> series;
  obs::FlightRecorder window_log(1);  // the listener sees every event
  vswitches[0]->attach_observability({.recorder = &window_log});
  window_log.add_listener([&](const obs::TraceEvent& ev) {
    if (ev.type != obs::EventType::kWindowEnforced || conn0 == nullptr) return;
    if (flow_start == sim::kNoTime) flow_start = ev.t;
    series.push_back({sim::to_seconds(ev.t - flow_start),
                      static_cast<double>(ev.a) / mss,
                      static_cast<double>(conn0->cwnd_bytes()) / mss});
  });

  const tcp::TcpConfig tcp = exp::host_tcp_config(s, mode);
  std::vector<host::BulkApp*> apps;
  for (int i = 0; i < bell.pairs(); ++i) {
    apps.push_back(s.add_bulk_flow(bell.sender(i), bell.receiver(i), tcp, 0));
  }
  s.run_until(sim::milliseconds(20));
  conn0 = apps[0]->sender_connection();
  s.run_until(duration);
  return series;
}

void print_windows(const std::string& title, const std::string& cwnd_header,
                   const std::vector<WindowSample>& series, double from_s,
                   double to_s) {
  stats::Table t({"t (ms)", "AC/DC RWND (MSS)", cwnd_header});
  double next = from_s * 1000;
  for (const WindowSample& w : series) {
    if (w.t_s < from_s || w.t_s > to_s) continue;
    if (w.t_s * 1000 < next) continue;
    t.add_row({stats::Table::num(w.t_s * 1000), stats::Table::num(w.rwnd_mss),
               stats::Table::num(w.cwnd_mss)});
    next = w.t_s * 1000 + 5.0;
  }
  t.print(title);
}

}  // namespace acdc::bench
