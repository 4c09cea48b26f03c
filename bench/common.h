// Shared harness for the paper exhibits in acdc_repro: builds the three §5
// configurations (CUBIC / DCTCP / AC/DC) on the paper's topologies, runs
// bulk flows plus an RTT probe, and returns the metrics every figure
// reports (per-flow goodput, Jain index, RTT percentiles, drop rate). It
// also holds what several exhibits share: the scheme list, the percentile
// tables, a star with a mode applied, persistent-channel drivers, the
// repeated-test fairness panel and the window tracker.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/dumbbell.h"
#include "exp/mode.h"
#include "exp/star.h"
#include "stats/fct_collector.h"
#include "stats/percentile.h"
#include "stats/table.h"

namespace acdc::bench {

struct FlowSpec {
  tcp::CcId cc = tcp::CcId::kCubic;  // host stack (ignored where mode dictates)
  double beta = 1.0;            // AC/DC QoS priority (Eq. 1)
  sim::Time start = 0;
  sim::Time stop = sim::kNoTime;  // for convergence-style runs
};

struct RunConfig {
  exp::Mode mode = exp::Mode::kAcdc;
  std::int64_t mtu_bytes = 9000;
  std::uint64_t seed = 1;
  sim::Time duration = sim::seconds(2);
  sim::Time measure_from = sim::milliseconds(300);
  // Jitter added to each flow's start time, drawn from the seeded RNG, so
  // repeated "tests" see different loss-synchronisation patterns (the
  // drop-tail dynamics are otherwise deterministic).
  sim::Time start_jitter = 0;
  bool rtt_probe = true;
  sim::Time probe_interval = sim::milliseconds(1);
  vswitch::AcdcConfig acdc{};
};

struct RunResult {
  std::vector<double> goodputs_gbps;
  double jain = 1.0;
  stats::Sampler rtt_ms;
  double drop_rate = 0.0;
  // Per-flow goodput (Gbps) per timeseries bucket.
  std::vector<std::vector<double>> flow_series_gbps;

  double total_gbps() const {
    double t = 0;
    for (double g : goodputs_gbps) t += g;
    return t;
  }
};

// Runs `flows` across the Fig. 7a dumbbell under the given mode. Honours
// ACDC_TRACE=<prefix>: the run is traced and dumps <prefix>.trace.json,
// <prefix>.trace.jsonl and <prefix>.metrics.csv.
RunResult run_dumbbell(const RunConfig& cfg, const std::vector<FlowSpec>& flows);

// Runs an N-to-1 incast of long flows on a single-switch star (Figs. 18/19);
// host 0 receives, hosts 1..n send, the probe runs from the last host.
// Honours ACDC_TRACE like run_dumbbell.
RunResult run_incast(const RunConfig& cfg, int senders);

// The metrics of `apps` (goodput over [measure_from, duration]) and of
// `probe` (may be null) once `s` has run to cfg.duration.
RunResult measure(const RunConfig& cfg, exp::Scenario& s,
                  const std::vector<host::BulkApp*>& apps,
                  const host::EchoApp* probe);

std::string gbps(double g);

// The paper's three configurations in every figure's column order;
// exp::to_string(mode) is each one's label.
inline constexpr exp::Mode kSchemes[] = {exp::Mode::kCubic, exp::Mode::kDctcp,
                                         exp::Mode::kAcdc};

// {first, "CUBIC<unit>", "DCTCP<unit>", "AC/DC<unit>"}.
std::vector<std::string> scheme_headers(const std::string& first,
                                        const std::string& unit);

// The percentiles of the RTT CDFs (Figs. 2, 8, 16) and the FCT CDFs
// (Figs. 21-23).
inline const std::vector<double> kRttPercentiles = {10, 25, 50, 75,
                                                    90, 99, 99.9};
inline const std::vector<double> kFctPercentiles = {25, 50, 75, 90, 99, 99.9};

// Prints a "percentile x column" table: `headers` names the percentile
// column and then one column per sampler.
void print_percentiles(const std::string& title,
                       std::vector<std::string> headers,
                       const std::vector<const stats::Sampler*>& columns,
                       const std::vector<double>& percentiles);

// A single-switch star with cfg.mode (and cfg.acdc) applied to every host,
// plus the host TCP config the mode implies (Figs. 18-23). `traced` turns
// tracing on when ACDC_TRACE is set, before the vSwitches attach (attaching
// first would add a t=0 sample of every vSwitch metric to the trace).
struct ModeStar : exp::Star {
  ModeStar(const RunConfig& cfg, int hosts, bool traced = false);
  tcp::TcpConfig tcp;
};

// Persistent connections from one host to its peers, the base of the
// Figs. 21-23 drivers: one MessageApp per peer, opened in the given order.
// start() runs once every channel is established; each send() records the
// message's FCT when it completes and then calls next().
class PeerChannels {
 public:
  PeerChannels(ModeStar& star, int src, const std::vector<int>& peers,
               stats::FctCollector* fct)
      : fct_(fct) {
    for (int dst : peers) {
      channels_.push_back(star.scenario().add_message_app(
          star.host(src), star.host(dst), star.tcp, 0, 0, 0, nullptr));
      channels_.back()->on_established = [this] {
        if (++established_ == channels_.size()) start();
      };
    }
  }
  // The channels' callbacks hold `this`.
  PeerChannels(const PeerChannels&) = delete;
  PeerChannels& operator=(const PeerChannels&) = delete;
  virtual ~PeerChannels() = default;

  // Hosts (src + d) mod n for d = 1..count.
  static std::vector<int> next_peers(const ModeStar& star, int src,
                                     int count) {
    std::vector<int> peers;
    const int n = star.host_count();
    for (int d = 1; d <= count; ++d) peers.push_back((src + d) % n);
    return peers;
  }

 protected:
  virtual void start() { next(); }
  virtual void next() = 0;
  void send(std::size_t channel, std::int64_t bytes) {
    channels_[channel]->send_message(bytes, [this, bytes](sim::Time fct) {
      fct_->record(bytes, fct);
      next();
    });
  }
  std::size_t channel_count() const { return channels_.size(); }

 private:
  std::vector<host::MessageApp*> channels_;
  stats::FctCollector* fct_;
  std::size_t established_ = 0;
};

// Each scheme's FCTs (Figs. 21-23), in kSchemes order.
using Fcts = std::vector<std::unique_ptr<stats::FctCollector>>;
using Drivers = std::vector<std::unique_ptr<PeerChannels>>;

// Runs each scheme on the 17-host star of Figs. 21-23 for `duration`;
// `add(star, host, fct, drivers)` adds each host's traffic, in host order,
// keeping its drivers alive in `drivers` for the run. Messages of up to
// `mice_bytes` count as mice.
template <typename AddTraffic>
Fcts run_star_fcts(std::int64_t mice_bytes, sim::Time duration,
                   const AddTraffic& add) {
  Fcts fcts;
  for (exp::Mode mode : kSchemes) {
    ModeStar star({.mode = mode}, 17);
    auto fct = std::make_unique<stats::FctCollector>(mice_bytes);
    Drivers drivers;
    for (int i = 0; i < star.host_count(); ++i) {
      add(star, i, fct.get(), drivers);
    }
    star.scenario().run_until(duration);
    fcts.push_back(std::move(fct));
  }
  return fcts;
}

// The repeated tests of Figs. 1 and 17: test `test` runs seed `test` for
// 3 s, measured from 1 s, with 500 us start jitter and no probe.
inline RunConfig repeated_test(exp::Mode mode, int test) {
  return {.mode = mode,
          .seed = static_cast<std::uint64_t>(test),
          .duration = sim::seconds(3),
          .measure_from = sim::seconds(1),
          .start_jitter = sim::microseconds(500),
          .rtt_probe = false};
}

// One flow per host stack.
inline std::vector<FlowSpec> flows_of(const std::vector<tcp::CcId>& stacks) {
  std::vector<FlowSpec> flows;
  for (tcp::CcId cc : stacks) flows.push_back(FlowSpec{.cc = cc});
  return flows;
}

// Runs `flows` under `mode` in ten repeated tests and prints one
// max/min/mean/median/Jain row per test; returns the mean Jain index.
double fairness_panel(const std::string& title, exp::Mode mode,
                      const std::vector<FlowSpec>& flows);

// One ACK whose window flow 0's vSwitch enforced (Figs. 9/10): seconds
// since the first such ACK, the enforced RWND and the sender's CWND.
struct WindowSample {
  double t_s;
  double rwnd_mss;
  double cwnd_mss;
};

// The Figs. 9/10 run: the 1.5 KB-MTU dumbbell under `mode` with `acdc`
// vSwitches on every host and the mode's host stack on every pair, for
// `duration`. Samples flow 0 on every kWindowEnforced event from 20 ms on.
std::vector<WindowSample> track_windows(exp::Mode mode,
                                        const vswitch::AcdcConfig& acdc,
                                        sim::Time duration);

// Prints the samples from `from_s` to `to_s`, at most one per ~5 ms.
void print_windows(const std::string& title, const std::string& cwnd_header,
                   const std::vector<WindowSample>& series, double from_s,
                   double to_s);

}  // namespace acdc::bench
