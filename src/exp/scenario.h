// Experiment scaffolding shared by benches, examples and integration tests:
// owns the simulator, RNG, hosts, switches, datapath filters and apps, and
// provides the paper's standard configurations (10G links, 9MB shared
// switch buffers, WRED/ECN marking thresholds, RTOmin = 10ms).
//
// A scenario can optionally run on the sharded parallel engine: after the
// topology is built, enable_parallel() partitions hosts and switches into
// shards, gives each shard a private Simulator, rewires cross-shard links
// through SPSC mailboxes and routes run_until() through the conservative
// ParallelExecutor. Same seed, same results on 1 or N threads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "acdc/vswitch.h"
#include "app/service.h"
#include "exp/partition.h"
#include "host/bulk_app.h"
#include "net/fault.h"
#include "host/echo_app.h"
#include "host/host.h"
#include "host/message_app.h"
#include "net/pcap.h"
#include "net/shard_link.h"
#include "net/switch.h"
#include "net/token_bucket.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/parallel/executor.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/churn.h"

namespace acdc::exp {

// Which of the paper's three configurations a host runs (§5 "Experiment
// details").
enum class Mode {
  kCubic,  // host CUBIC, plain vSwitch, no switch ECN
  kDctcp,  // host DCTCP, plain vSwitch, switch WRED/ECN on
  kAcdc,   // host CUBIC (by default) + AC/DC vSwitch, switch WRED/ECN on
};

const char* to_string(Mode mode);

struct ScenarioConfig {
  std::uint64_t seed = 1;
  std::int64_t mtu_bytes = 9000;
  sim::Rate link_rate = sim::gigabits_per_second(10);
  sim::Time host_link_delay = sim::microseconds(2);
  sim::Time switch_link_delay = sim::microseconds(2);
  std::int64_t switch_buffer_bytes = 9 * 1024 * 1024;
  bool red_enabled = true;
  // Wire-level fault injection applied to every unidirectional link built
  // by attach()/trunk(). Each link gets its own RNG substream split from
  // `seed`, so fault draws on one link never perturb another. Defaults to
  // a clean fabric.
  net::FaultConfig link_faults;

  // DCTCP-style step-marking threshold; the paper-standard K scales with
  // MTU (65 x 1.5KB-packets' worth of bytes, ~100KB; larger for 9K).
  std::int64_t derived_red_k() const {
    return mtu_bytes >= 9000 ? 20 * 9000 : 65 * 1500;
  }
  std::uint32_t mss() const {
    return static_cast<std::uint32_t>(mtu_bytes - 40);
  }
};

// Outcome of enable_parallel(): either the executor is live (parallel ==
// true) or the scenario stays on the serial engine, with the reason.
struct PartitionReport {
  bool parallel = false;
  int shards = 1;   // effective shard count (1 when serial)
  int threads = 1;  // worker threads actually used
  int cut_links = 0;
  // Global minimum extracted lookahead over cut links (propagation plus
  // minimum-frame serialization); per-pair values in pair_lookaheads.
  sim::Time lookahead = 0;
  // Extracted per-directed-shard-pair lookaheads (exp/partition.h).
  std::vector<PairLookahead> pair_lookaheads;
  std::string fallback_reason;   // set when parallel == false
  std::vector<int> host_shard;   // by host creation index
  std::vector<int> switch_shard; // by switch creation index
};

// Knobs for enable_parallel. The default batch depth is the fast path;
// unbatched sends remain reachable for A/B testing — every depth produces
// bit-identical event streams.
struct ParallelOptions {
  int shards = 1;
  int threads = 0;  // 0 = one per shard
  int handoff_batch = 64;  // producer-side sends per mailbox flush (>= 1)
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& config);

  sim::Simulator& simulator() { return sim_; }
  sim::Rng& rng() { return rng_; }
  const ScenarioConfig& config() const { return config_; }

  // ---- Topology ----
  // Topology calls are legal only before enable_parallel.
  host::Host* add_host(const std::string& name);
  // A switch with the ScenarioConfig's shared buffer, marking at
  // derived_red_k() when red_enabled.
  net::Switch* add_switch(const std::string& name);
  // Full-duplex host <-> switch attachment with routes installed.
  // delay == 0 inherits ScenarioConfig::host_link_delay; a positive value
  // overrides both directions (per-link skew decorrelates spokes so
  // independent uplinks never deliver on the same tick — cable-length
  // heterogeneity, and what keeps serial and sharded runs tie-free).
  void attach(host::Host* h, net::Switch* sw, sim::Time delay = 0);
  // Full-duplex switch <-> switch trunk at ScenarioConfig::link_rate;
  // returns the two unidirectional egress ports (a->b, b->a) so callers can
  // install routes/inspect queues.
  std::pair<net::Port*, net::Port*> trunk(net::Switch* a, net::Switch* b);

  // ---- Parallel execution ----
  // Partitions the topology into `shards` shards (exp/partition.h) and runs
  // subsequent run_until() calls on up to `threads` worker threads (<= 0:
  // one per shard). Must be called once, after the topology is built
  // (add_host/attach/trunk) and before tracing, vSwitches, shapers or apps
  // exist — those bind to shard simulators; every build checks the order.
  // Falls back to the serial engine (report.parallel == false) when the
  // partition yields no cut links or zero lookahead.
  PartitionReport enable_parallel(int shards, int threads);
  PartitionReport enable_parallel(const ParallelOptions& options);
  const PartitionReport& partition() const { return report_; }
  sim::par::ParallelExecutor* executor() { return executor_.get(); }

  // The shard whose simulator runs `h` (host::Host::sim); 0 on the serial
  // engine.
  int shard_of(host::Host* h) const;
  // Current simulation time (shard clocks agree at run_until boundaries).
  sim::Time now() const;
  // Executed events summed across shards (or the serial simulator's count).
  std::uint64_t executed_events() const;

  // ---- Datapath ----
  vswitch::AcdcVswitch* attach_acdc(host::Host* h,
                                    const vswitch::AcdcConfig& config);
  net::TokenBucketShaper* attach_shaper(
      host::Host* h, sim::Rate rate, std::int64_t burst_bytes,
      std::int64_t backlog_limit_bytes = 2 * 1024 * 1024);

  // ---- TCP configs ----
  // Paper defaults: RTOmin 10ms, SACK on, window scaling, MSS from MTU.
  tcp::TcpConfig tcp_config(tcp::CcId cc) const;

  // ---- Apps (owned by the scenario) ----
  host::BulkApp* add_bulk_flow(host::Host* sender, host::Host* receiver,
                               const tcp::TcpConfig& cfg, sim::Time start,
                               std::int64_t total_bytes = 0);
  host::EchoApp* add_rtt_probe(host::Host* client, host::Host* server,
                               const tcp::TcpConfig& cfg, sim::Time start,
                               sim::Time interval);
  host::MessageApp* add_message_app(host::Host* sender, host::Host* receiver,
                                    const tcp::TcpConfig& cfg, sim::Time start,
                                    sim::Time interval, std::int64_t bytes,
                                    stats::FctCollector* collector);

  // ---- Churn workload ----
  // One open-loop flow-churn source driving sender -> receiver on a fresh
  // port. Timers run on the sender's shard simulator and the receiver side
  // is wired through its own listener, so churn sources are parallel-shard
  // safe; each source draws from its own RNG substream split from the
  // scenario seed, so adding one never perturbs links or other sources.
  workload::ChurnSource* add_churn_workload(host::Host* sender,
                                            host::Host* receiver,
                                            const tcp::TcpConfig& cfg,
                                            const workload::ChurnConfig& config,
                                            sim::Time start = 0);
  // Summed over every source. Safe whenever no simulator is running.
  workload::ChurnStats churn_stats() const;

  // ---- Closed-loop service workload ----
  // One 3-tier (or 2-tier, when roles.storage is empty) closed-loop
  // service over hosts this scenario owns: user-session groups ->
  // frontends -> partition-aggregate fan-out across workers -> storage.
  // Every component's timers run on its own host's shard simulator and
  // every component draws from its own RNG substream split from the
  // scenario seed, so service tiers are parallel-shard safe and adding one
  // never perturbs churn, links or other tiers. If tracing is already on
  // (or turned on later), per-shard `svc.*` gauges — request-latency
  // p50/p99/p999, deadline-miss / SLO-violation counters, sustained rps,
  // per-tier rejects — land in the shard metrics registries.
  app::ServiceTier* add_service_workload(const app::ServiceRoles& roles,
                                         const app::ServiceConfig& config,
                                         const tcp::TcpConfig& cfg);
  // Merged over every tier.
  app::ServiceStats service_stats() const;

  void run_until(sim::Time t);

  // Aggregate switch queue statistics across all switches.
  net::QueueStats fabric_stats() const;

  // ---- Fault injection ----
  // Aggregate fault-injection statistics across all links.
  net::FaultStats fault_stats() const;

  // ---- Observability ----
  // Turns on the flight recorder + metrics registry and wires them into
  // every host, switch and AC/DC vSwitch — both already-created and
  // future ones. Idempotent; a metrics_interval of 0 disables periodic
  // snapshots (metrics can still be sampled manually). On a partitioned
  // scenario each shard gets its own recorder/registry (trace rings are
  // single-writer); the return value and recorder()/metrics() refer to
  // shard 0, recorders() exposes every shard's recorder.
  obs::FlightRecorder& enable_tracing(
      std::size_t ring_capacity = std::size_t{1} << 18,
      sim::Time metrics_interval = sim::milliseconds(1));
  obs::FlightRecorder* recorder() {
    return shard_recorders_.empty() ? nullptr : shard_recorders_[0].get();
  }
  obs::MetricsRegistry* metrics() {
    return shard_metrics_.empty() ? nullptr : shard_metrics_[0].get();
  }
  std::vector<obs::FlightRecorder*> recorders();

  // Pcap bridge: every packet `port` transmits is appended to a classic
  // pcap file at `path` (nanosecond timestamps, LINKTYPE_RAW — opens in
  // Wireshark/tcpdump). The scenario owns the writer; returns nullptr if
  // the file cannot be opened. Typical targets: a host's NIC
  // (host->nic().tx_port()) or a switch port.
  net::PcapWriter* attach_pcap(net::Port& port, const std::string& path);

 private:
  // Interposes a FaultInjector in front of `sink` when link faults are
  // configured; otherwise returns `sink` unchanged. `injector` reports the
  // interposed injector (nullptr when none).
  net::PacketSink* wrap_link(net::PacketSink* sink,
                             net::FaultInjector*& injector);

  // One full-duplex link, recorded so enable_parallel can partition the
  // topology and rewire cut links through mailboxes.
  struct LinkRec {
    bool host_side;  // host <-> switch when true, else switch trunk
    int host;        // host index (host_side only)
    int sw_a;        // the switch (host links) or trunk endpoint a
    int sw_b;        // trunk endpoint b (-1 for host links)
    net::Port* a_to_b;             // egress port on the a side
    net::Port* b_to_a;             // egress port on the b side
    net::PacketSink* head_a_to_b;  // delivery head on the b side
    net::PacketSink* head_b_to_a;  // delivery head on the a side
    net::FaultInjector* inj_a_to_b;
    net::FaultInjector* inj_b_to_a;
    sim::Time delay;
    sim::Rate rate;  // line rate, for lookahead extraction
  };

  sim::par::Mailbox* mailbox_for(int src_shard, int dst_shard);
  int link_shard(const LinkRec& link, bool a_side) const;
  int shard_of(const sim::Simulator* sim) const;  // its index in sims_

  // Tracing hooks, one per component kind. enable_tracing runs each over
  // the components that already exist; add_host, add_switch, attach_acdc
  // and add_service_workload run it on a new one once tracing is on. The
  // registration order is the metrics CSV's column order.
  void trace_host(host::Host* h);
  void trace_switch(net::Switch* sw);
  void trace_acdc(vswitch::AcdcVswitch* vs, host::Host* h);
  void trace_tier(app::ServiceTier* tier);

  ScenarioConfig config_;
  sim::Simulator sim_;
  sim::Rng rng_;

  // ---- Topology record + parallel engine ----
  // Declared before every component container: hosts, apps, injectors and
  // vSwitches cancel timers on their bound shard simulator in their
  // destructors, so the shard simulators (and the mailboxes their pending
  // events reference) must be destroyed after them — i.e. declared first.
  std::vector<LinkRec> links_;
  std::unordered_map<const host::Host*, int> host_index_;
  std::unordered_map<const net::Switch*, int> switch_index_;
  PartitionReport report_;
  std::vector<std::unique_ptr<sim::Simulator>> shard_sims_;
  // The simulators that run the scenario, by shard: sim_ alone, or the
  // shard simulators once enable_parallel commits a partition.
  std::vector<sim::Simulator*> sims_;
  std::vector<std::unique_ptr<sim::par::Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<net::MailboxPeer>> mailbox_peers_;

  std::vector<std::unique_ptr<host::Host>> hosts_;
  std::vector<std::unique_ptr<net::Switch>> switches_;
  std::vector<std::unique_ptr<net::DuplexFilter>> filters_;
  std::vector<std::unique_ptr<net::FaultInjector>> injectors_;
  std::vector<std::pair<vswitch::AcdcVswitch*, host::Host*>> acdc_filters_;
  std::vector<std::unique_ptr<obs::FlightRecorder>> shard_recorders_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> shard_metrics_;
  std::vector<std::unique_ptr<net::PcapWriter>> pcap_writers_;
  std::vector<std::unique_ptr<host::BulkApp>> bulk_apps_;
  std::vector<std::unique_ptr<host::EchoApp>> echo_apps_;
  std::vector<std::unique_ptr<host::MessageApp>> message_apps_;
  std::vector<std::unique_ptr<workload::ChurnSource>> churn_sources_;
  std::vector<std::unique_ptr<app::ServiceTier>> service_tiers_;
  net::TcpPort next_port_ = 5000;
  std::uint8_t next_host_id_ = 1;

  // Declared last so it is destroyed first: the executor joins its worker
  // threads before anything they touch goes away.
  std::unique_ptr<sim::par::ParallelExecutor> executor_;
};

}  // namespace acdc::exp
