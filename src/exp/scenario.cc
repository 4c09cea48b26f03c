#include "exp/scenario.h"

#include <algorithm>
#include <cassert>

#include "exp/partition.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/check.h"

namespace acdc::exp {

namespace {

// Churn and service sources get substreams far from the per-link fault
// streams (1..N), so adding links never collides with adding sources.
constexpr std::uint64_t kChurnRngStreamBase = 0x4348'0000'0000'0000ull;
constexpr std::uint64_t kServiceRngStreamBase = 0x5E52'0000'0000'0000ull;

}  // namespace

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kCubic:
      return "CUBIC";
    case Mode::kDctcp:
      return "DCTCP";
    case Mode::kAcdc:
      return "AC/DC";
  }
  return "?";
}

Scenario::Scenario(const ScenarioConfig& config)
    : config_(config), rng_(config.seed), sims_{&sim_} {}

host::Host* Scenario::add_host(const std::string& name) {
  ACDC_CHECK(shard_sims_.empty(),
             "scenario: add_host(%s) after enable_parallel froze the topology",
             name.c_str());
  host::HostConfig hc;
  hc.link_rate = config_.link_rate;
  hc.link_delay = config_.host_link_delay;
  const net::IpAddr ip = net::make_ip(10, 0, 0, next_host_id_++);
  hosts_.push_back(std::make_unique<host::Host>(&sim_, name, ip, hc));
  host::Host* raw = hosts_.back().get();
  host_index_.emplace(raw, static_cast<int>(hosts_.size()) - 1);
  if (!shard_recorders_.empty()) trace_host(raw);
  return raw;
}

net::Switch* Scenario::add_switch(const std::string& name) {
  ACDC_CHECK(
      shard_sims_.empty(),
      "scenario: add_switch(%s) after enable_parallel froze the topology",
      name.c_str());
  net::SwitchConfig sc;
  sc.shared_buffer_bytes = config_.switch_buffer_bytes;
  if (config_.red_enabled) sc.mark_threshold_bytes = config_.derived_red_k();
  switches_.push_back(std::make_unique<net::Switch>(&sim_, name, sc));
  net::Switch* raw = switches_.back().get();
  switch_index_.emplace(raw, static_cast<int>(switches_.size()) - 1);
  if (!shard_recorders_.empty()) trace_switch(raw);
  return raw;
}

net::PacketSink* Scenario::wrap_link(net::PacketSink* sink,
                                     net::FaultInjector*& injector) {
  injector = nullptr;
  if (!config_.link_faults.any()) return sink;
  // Stream ids start at 1: stream 0 is reserved for future scenario-level
  // draws so adding links never collides with it.
  injectors_.push_back(std::make_unique<net::FaultInjector>(
      &sim_, rng_.split(injectors_.size() + 1), config_.link_faults));
  injectors_.back()->set_target(sink);
  injector = injectors_.back().get();
  return injector;
}

void Scenario::attach(host::Host* h, net::Switch* sw, sim::Time delay) {
  ACDC_CHECK(shard_sims_.empty(),
             "scenario: attach(%s) after enable_parallel froze the topology",
             h->name().c_str());
  const sim::Time d = delay > 0 ? delay : config_.host_link_delay;
  LinkRec rec{};
  rec.host_side = true;
  rec.host = host_index_.at(h);
  rec.sw_a = switch_index_.at(sw);
  rec.sw_b = -1;
  rec.delay = d;
  rec.rate = config_.link_rate;
  // Host -> switch direction.
  rec.a_to_b = &h->nic().tx_port();
  rec.a_to_b->set_propagation_delay(d);
  rec.head_a_to_b = wrap_link(sw, rec.inj_a_to_b);
  rec.a_to_b->set_peer(rec.head_a_to_b);
  // Switch -> host direction.
  rec.b_to_a = sw->add_port(config_.link_rate, d);
  rec.head_b_to_a = wrap_link(&h->nic(), rec.inj_b_to_a);
  rec.b_to_a->set_peer(rec.head_b_to_a);
  sw->add_route(h->ip(), rec.b_to_a);
  links_.push_back(rec);
}

std::pair<net::Port*, net::Port*> Scenario::trunk(net::Switch* a,
                                                  net::Switch* b) {
  ACDC_CHECK(
      shard_sims_.empty(),
      "scenario: trunk(%s, %s) after enable_parallel froze the topology",
      a->name().c_str(), b->name().c_str());
  const sim::Rate r = config_.link_rate;
  LinkRec rec{};
  rec.host_side = false;
  rec.host = -1;
  rec.sw_a = switch_index_.at(a);
  rec.sw_b = switch_index_.at(b);
  rec.delay = config_.switch_link_delay;
  rec.rate = r;
  rec.a_to_b = a->add_port(r, config_.switch_link_delay);
  rec.head_a_to_b = wrap_link(b, rec.inj_a_to_b);
  rec.a_to_b->set_peer(rec.head_a_to_b);
  rec.b_to_a = b->add_port(r, config_.switch_link_delay);
  rec.head_b_to_a = wrap_link(a, rec.inj_b_to_a);
  rec.b_to_a->set_peer(rec.head_b_to_a);
  links_.push_back(rec);
  return {rec.a_to_b, rec.b_to_a};
}

int Scenario::link_shard(const LinkRec& link, bool a_side) const {
  if (a_side) {
    return link.host_side
               ? report_.host_shard[static_cast<std::size_t>(link.host)]
               : report_.switch_shard[static_cast<std::size_t>(link.sw_a)];
  }
  return link.host_side
             ? report_.switch_shard[static_cast<std::size_t>(link.sw_a)]
             : report_.switch_shard[static_cast<std::size_t>(link.sw_b)];
}

sim::par::Mailbox* Scenario::mailbox_for(int src_shard, int dst_shard) {
  for (const auto& mb : mailboxes_) {
    if (mb->src_shard() == src_shard && mb->dst_shard() == dst_shard) {
      return mb.get();
    }
  }
  mailboxes_.push_back(
      std::make_unique<sim::par::Mailbox>(src_shard, dst_shard));
  return mailboxes_.back().get();
}

PartitionReport Scenario::enable_parallel(int shards, int threads) {
  ParallelOptions options;
  options.shards = shards;
  options.threads = threads;
  return enable_parallel(options);
}

PartitionReport Scenario::enable_parallel(const ParallelOptions& options) {
  const int shards = options.shards;
  const int threads = options.threads > 0 ? options.threads : options.shards;
  // Components built earlier are bound to the serial simulator, which
  // nothing runs once the scenario is partitioned: a violation would leave
  // them silently stalled (and their timers unfired), not reassigned.
  ACDC_CHECK(executor_ == nullptr && shard_sims_.empty(),
             "scenario: enable_parallel may only be called once");
  ACDC_CHECK(shard_recorders_.empty(),
             "scenario: call enable_parallel before enable_tracing");
  ACDC_CHECK(filters_.empty() && bulk_apps_.empty() && echo_apps_.empty() &&
                 message_apps_.empty() && churn_sources_.empty() &&
                 service_tiers_.empty(),
             "scenario: call enable_parallel before vSwitches, shapers and "
             "apps (%zu filters, %zu bulk, %zu echo, %zu message, %zu churn, "
             "%zu service)",
             filters_.size(), bulk_apps_.size(), echo_apps_.size(),
             message_apps_.size(), churn_sources_.size(),
             service_tiers_.size());

  report_ = PartitionReport{};
  report_.host_shard.assign(hosts_.size(), 0);
  report_.switch_shard.assign(switches_.size(), 0);
  if (shards <= 1) {
    report_.fallback_reason = "fewer than two shards requested";
    return report_;
  }

  PartitionInput in;
  in.hosts = static_cast<int>(hosts_.size());
  in.switches = static_cast<int>(switches_.size());
  in.shards = shards;
  for (const LinkRec& l : links_) {
    in.edges.push_back({l.host_side, l.host, l.sw_a, l.sw_b, l.delay, l.rate});
  }
  const PartitionResult pr = partition_topology(in);
  report_.host_shard = pr.host_shard;
  report_.switch_shard = pr.switch_shard;
  report_.cut_links = pr.cut_links;

  if (pr.cut_links == 0) {
    report_.fallback_reason = "partition left no cut links";
    return report_;
  }
  sim::Time min_prop = sim::kNoTime;
  for (const LinkRec& l : links_) {
    if (link_shard(l, true) == link_shard(l, false)) continue;
    if (min_prop == sim::kNoTime || l.delay < min_prop) min_prop = l.delay;
  }
  if (min_prop <= 0) {
    report_.fallback_reason = "zero lookahead on a cut link";
    return report_;
  }

  // Extracted lookahead: propagation plus the serialization time of the
  // smallest frame this traffic can emit — a bare ACK (IP + TCP headers)
  // plus Ethernet framing overhead. Ports stamp cross-link deliveries at
  // now + serialization + propagation (net/port.cc), so the per-pair slack
  // is exact.
  const std::int64_t min_wire_bytes = net::kIpv4HeaderBytes +
                                      net::kTcpBaseHeaderBytes +
                                      net::kEthernetOverheadBytes;
  report_.pair_lookaheads = extract_lookahead(in, pr, min_wire_bytes);
  sim::Time lookahead = sim::kNoTime;
  for (const PairLookahead& pl : report_.pair_lookaheads) {
    if (lookahead == sim::kNoTime || pl.lookahead < lookahead) {
      lookahead = pl.lookahead;
    }
  }
  assert(lookahead > 0);

  // Commit: per-shard simulators, component re-homing, mailbox rewiring.
  shard_sims_.reserve(static_cast<std::size_t>(pr.shards));
  sims_.clear();
  for (int s = 0; s < pr.shards; ++s) {
    shard_sims_.push_back(std::make_unique<sim::Simulator>());
    sims_.push_back(shard_sims_.back().get());
  }
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    hosts_[i]->rebind_simulator(
        sims_[static_cast<std::size_t>(report_.host_shard[i])]);
  }
  for (std::size_t j = 0; j < switches_.size(); ++j) {
    switches_[j]->rebind_simulator(
        sims_[static_cast<std::size_t>(report_.switch_shard[j])]);
  }
  for (const LinkRec& l : links_) {
    const int sa = link_shard(l, true);
    const int sb = link_shard(l, false);
    // A FaultInjector is the delivery head of its direction, so it runs —
    // and schedules its reorder timers — on the destination shard.
    if (l.inj_a_to_b != nullptr) {
      l.inj_a_to_b->rebind_simulator(sims_[static_cast<std::size_t>(sb)]);
    }
    if (l.inj_b_to_a != nullptr) {
      l.inj_b_to_a->rebind_simulator(sims_[static_cast<std::size_t>(sa)]);
    }
    if (sa == sb) continue;
    mailbox_peers_.push_back(std::make_unique<net::MailboxPeer>(
        mailbox_for(sa, sb), l.head_a_to_b));
    l.a_to_b->set_remote_peer(mailbox_peers_.back().get());
    mailbox_peers_.push_back(std::make_unique<net::MailboxPeer>(
        mailbox_for(sb, sa), l.head_b_to_a));
    l.b_to_a->set_remote_peer(mailbox_peers_.back().get());
  }

  sim::par::ParallelExecutor::Config cfg;
  cfg.shards = sims_;
  for (const auto& mb : mailboxes_) cfg.mailboxes.push_back(mb.get());
  cfg.lookahead = lookahead;
  for (const PairLookahead& pl : report_.pair_lookaheads) {
    cfg.pair_lookaheads.push_back({pl.src, pl.dst, pl.lookahead});
  }
  cfg.threads = threads;
  cfg.handoff_batch = options.handoff_batch;
  executor_ = std::make_unique<sim::par::ParallelExecutor>(std::move(cfg));

  report_.parallel = true;
  report_.shards = pr.shards;
  report_.threads = executor_->threads();
  report_.lookahead = lookahead;
  return report_;
}

int Scenario::shard_of(host::Host* h) const { return shard_of(h->sim()); }

int Scenario::shard_of(const sim::Simulator* sim) const {
  return static_cast<int>(std::find(sims_.begin(), sims_.end(), sim) -
                          sims_.begin());
}

sim::Time Scenario::now() const { return sims_.front()->now(); }

std::uint64_t Scenario::executed_events() const {
  std::uint64_t total = 0;
  for (const sim::Simulator* s : sims_) total += s->executed_events();
  return total;
}

void Scenario::run_until(sim::Time t) {
  if (executor_ != nullptr) {
    executor_->run_until(t);
  } else {
    sim_.run_until(t);
  }
}

vswitch::AcdcVswitch* Scenario::attach_acdc(
    host::Host* h, const vswitch::AcdcConfig& config) {
  vswitch::AcdcConfig cfg = config;
  if (cfg.mtu_bytes == 9000) cfg.mtu_bytes = config_.mtu_bytes;
  auto vs = std::make_unique<vswitch::AcdcVswitch>(h->sim(), cfg);
  vswitch::AcdcVswitch* raw = vs.get();
  filters_.push_back(std::move(vs));
  h->add_filter(raw);
  acdc_filters_.emplace_back(raw, h);
  if (!shard_recorders_.empty()) trace_acdc(raw, h);
  return raw;
}

net::TokenBucketShaper* Scenario::attach_shaper(
    host::Host* h, sim::Rate rate, std::int64_t burst_bytes,
    std::int64_t backlog_limit_bytes) {
  auto shaper = std::make_unique<net::TokenBucketShaper>(
      h->sim(), rate, burst_bytes, backlog_limit_bytes);
  net::TokenBucketShaper* raw = shaper.get();
  filters_.push_back(std::move(shaper));
  h->add_filter(raw);
  return raw;
}

tcp::TcpConfig Scenario::tcp_config(tcp::CcId cc) const {
  tcp::TcpConfig cfg;
  cfg.mss = config_.mss();
  cfg.cc = cc;
  cfg.min_rto = sim::milliseconds(10);  // paper §5 system settings
  cfg.sack = true;
  cfg.ecn = cc == tcp::CcId::kDctcp;  // DCTCP requires ECN; others off
  // Deployed DCTCP marks control packets ECT too, so handshakes survive
  // saturated marking queues (see TcpConfig::ect_on_control).
  cfg.ect_on_control = cfg.ecn;
  return cfg;
}

host::BulkApp* Scenario::add_bulk_flow(host::Host* sender,
                                       host::Host* receiver,
                                       const tcp::TcpConfig& cfg,
                                       sim::Time start,
                                       std::int64_t total_bytes) {
  tcp::TcpConfig receiver_cfg = cfg;
  bulk_apps_.push_back(std::make_unique<host::BulkApp>(
      sender, receiver, next_port_++, cfg, receiver_cfg, start, total_bytes));
  return bulk_apps_.back().get();
}

host::EchoApp* Scenario::add_rtt_probe(host::Host* client, host::Host* server,
                                       const tcp::TcpConfig& cfg,
                                       sim::Time start, sim::Time interval) {
  // The app's timers and RTT bookkeeping all run client-side; the echo
  // logic lives in the server host's own connection callbacks.
  echo_apps_.push_back(std::make_unique<host::EchoApp>(
      client, server, next_port_++, cfg, cfg, start, interval));
  return echo_apps_.back().get();
}

host::MessageApp* Scenario::add_message_app(host::Host* sender,
                                            host::Host* receiver,
                                            const tcp::TcpConfig& cfg,
                                            sim::Time start,
                                            sim::Time interval,
                                            std::int64_t bytes,
                                            stats::FctCollector* collector) {
  message_apps_.push_back(std::make_unique<host::MessageApp>(
      sender, receiver, next_port_++, cfg, cfg, start, interval, bytes,
      collector));
  return message_apps_.back().get();
}

workload::ChurnSource* Scenario::add_churn_workload(
    host::Host* sender, host::Host* receiver, const tcp::TcpConfig& cfg,
    const workload::ChurnConfig& config, sim::Time start) {
  const std::uint64_t stream =
      kChurnRngStreamBase + static_cast<std::uint64_t>(churn_sources_.size());
  churn_sources_.push_back(std::make_unique<workload::ChurnSource>(
      sender, receiver, next_port_++, cfg, config, rng_.split(stream), start));
  return churn_sources_.back().get();
}

workload::ChurnStats Scenario::churn_stats() const {
  workload::ChurnStats total;
  for (const auto& src : churn_sources_) total += src->stats();
  return total;
}

app::ServiceTier* Scenario::add_service_workload(
    const app::ServiceRoles& roles, const app::ServiceConfig& config,
    const tcp::TcpConfig& cfg) {
  const std::uint64_t stream =
      kServiceRngStreamBase +
      static_cast<std::uint64_t>(service_tiers_.size());
  service_tiers_.push_back(std::make_unique<app::ServiceTier>(
      roles, config, cfg, rng_.split(stream)));
  app::ServiceTier* tier = service_tiers_.back().get();
  if (!shard_recorders_.empty()) trace_tier(tier);
  return tier;
}

app::ServiceStats Scenario::service_stats() const {
  app::ServiceStats total;
  for (const auto& tier : service_tiers_) tier->stats().merge_into(total);
  return total;
}

net::FaultStats Scenario::fault_stats() const {
  net::FaultStats total;
  for (const auto& inj : injectors_) total += inj->stats();
  return total;
}

net::QueueStats Scenario::fabric_stats() const {
  net::QueueStats total;
  for (const auto& sw : switches_) total.fold(sw->total_stats());
  return total;
}

obs::FlightRecorder& Scenario::enable_tracing(std::size_t ring_capacity,
                                              sim::Time metrics_interval) {
  if (shard_recorders_.empty()) {
    for (std::size_t s = 0; s < sims_.size(); ++s) {
      shard_recorders_.push_back(
          std::make_unique<obs::FlightRecorder>(ring_capacity));
      shard_metrics_.push_back(std::make_unique<obs::MetricsRegistry>());
      // Sampled on the shard's worker thread, so the gauges report that
      // thread's (= that shard's) packet pool.
      net::PacketPool::register_metrics(*shard_metrics_.back());
    }
    for (const auto& h : hosts_) trace_host(h.get());
    for (const auto& sw : switches_) trace_switch(sw.get());
    for (const auto& tier : service_tiers_) trace_tier(tier.get());
    // Executor diagnostics ride the shard-0 registry (sampled on the
    // shard-0 worker thread, which is the run_until caller). stats() is
    // safe mid-run: every field is a relaxed atomic, so samples taken
    // while workers execute are approximate and the final flush is exact.
    if (executor_ != nullptr) {
      sim::par::ParallelExecutor* ex = executor_.get();
      obs::MetricsRegistry& reg = *shard_metrics_[0];
      reg.register_gauge("parallel.epochs", [ex] {
        return static_cast<double>(ex->stats().epochs);
      });
      reg.register_gauge("parallel.msgs_per_epoch", [ex] {
        const auto st = ex->stats();
        return st.epochs == 0 ? 0.0
                              : static_cast<double>(st.messages) /
                                    static_cast<double>(st.epochs);
      });
      reg.register_gauge("parallel.null_msgs", [ex] {
        return static_cast<double>(ex->stats().null_msgs);
      });
      reg.register_gauge("parallel.barrier_wait_ns", [ex] {
        return static_cast<double>(ex->stats().barrier_wait_ns);
      });
      reg.register_gauge("parallel.idle_wait_ns", [ex] {
        return static_cast<double>(ex->stats().idle_wait_ns);
      });
    }
    for (const auto& [vs, h] : acdc_filters_) trace_acdc(vs, h);
    if (metrics_interval > 0) {
      for (std::size_t s = 0; s < sims_.size(); ++s) {
        shard_metrics_[s]->schedule_sampling(sims_[s], metrics_interval);
      }
    }
  }
  for (const auto& rec : shard_recorders_) rec->set_enabled(true);
  return *shard_recorders_[0];
}

void Scenario::trace_host(host::Host* h) {
  const std::size_t s = static_cast<std::size_t>(shard_of(h));
  h->set_trace(shard_recorders_[s].get());
  h->register_metrics(*shard_metrics_[s]);
}

void Scenario::trace_switch(net::Switch* sw) {
  const std::size_t s = static_cast<std::size_t>(shard_of(sw->sim()));
  sw->set_trace(shard_recorders_[s].get());
  sw->register_metrics(*shard_metrics_[s]);
}

void Scenario::trace_acdc(vswitch::AcdcVswitch* vs, host::Host* h) {
  const std::size_t s = static_cast<std::size_t>(shard_of(h));
  vswitch::AcdcVswitch::ObsHooks hooks;
  hooks.recorder = shard_recorders_[s].get();
  hooks.metrics = shard_metrics_[s].get();
  hooks.name = "acdc." + h->name();
  vs->attach_observability(hooks);
}

void Scenario::trace_tier(app::ServiceTier* tier) {
  // Every shard's registry gets the gauges of the components it runs.
  for (std::size_t s = 0; s < sims_.size(); ++s) {
    tier->register_metrics(sims_[s], *shard_metrics_[s]);
  }
}

net::PcapWriter* Scenario::attach_pcap(net::Port& port,
                                       const std::string& path) {
  auto writer = std::make_unique<net::PcapWriter>(path);
  if (!writer->ok()) return nullptr;
  net::PcapWriter* raw = writer.get();
  pcap_writers_.push_back(std::move(writer));
  port.set_pcap(raw);
  return raw;
}

std::vector<obs::FlightRecorder*> Scenario::recorders() {
  std::vector<obs::FlightRecorder*> out;
  for (const auto& rec : shard_recorders_) out.push_back(rec.get());
  return out;
}

}  // namespace acdc::exp
