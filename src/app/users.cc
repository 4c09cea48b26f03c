#include "app/users.h"

#include <cmath>
#include <utility>

#include "sim/check.h"

namespace acdc::app {

namespace {

constexpr std::int64_t kRequestBytes = 256;
// kDiurnal's rate swing around the mean, in [0, 1).
constexpr double kDiurnalDepth = 0.6;
// kBurst's exponential on/off phase-duration means, and its think-rate
// multiplier while on.
constexpr sim::Time kBurstOnMean = sim::seconds(0.5);
constexpr sim::Time kBurstOffMean = sim::seconds(2.0);
constexpr double kBurstFactor = 4.0;

}  // namespace

void UserGroupStats::merge_into(UserGroupStats& into) const {
  into.sessions += sessions;
  into.sessions_ended += sessions_ended;
  into.issued += issued;
  into.completed += completed;
  into.deadline_misses += deadline_misses;
  into.slo_violations += slo_violations;
  into.degraded += degraded;
  into.late_responses += late_responses;
  into.response_bytes += response_bytes;
  into.latency.merge(latency);
  into.samples.insert(into.samples.end(), samples.begin(), samples.end());
  into.server_cost_sum.queue_ns += server_cost_sum.queue_ns;
  into.server_cost_sum.service_ns += server_cost_sum.service_ns;
  into.server_cost_sum.downstream_ns += server_cost_sum.downstream_ns;
}

UserGroup::UserGroup(host::Host* host, ConduitRegistry* registry,
                     net::IpAddr server_ip, net::TcpPort server_port,
                     const tcp::TcpConfig& tcp_config,
                     const UserPopulationConfig& config, std::int64_t sessions,
                     sim::Rng rng, sim::Time start)
    : host_(host),
      config_(config),
      rng_(rng),
      start_(start),
      client_(host, registry, server_ip, server_port, tcp_config),
      sessions_(static_cast<std::size_t>(sessions), SessionState::kThinking),
      thinks_(host->sim(), this, &UserGroup::on_think_timer) {
  ACDC_CHECK(sessions > 0,
             "user group: sessions must be positive (sessions=%lld)",
             static_cast<long long>(sessions));
  stats_.sessions = sessions;
  // A session has at most one think pending, and the start tick arms them
  // all.
  thinks_.reserve(sessions_.size());
  sim()->schedule_at(start_, [this] {
    if (config_.curve == LoadCurve::kBurst) {
      burst_on_ = true;
      flip_burst();
    }
    for (std::size_t s = 0; s < sessions_.size(); ++s) arm_think(s);
  });
  if (config_.stop_after != sim::kNoTime) {
    sim()->schedule_at(start_ + config_.stop_after, [this] { stop_all(); });
  }
}

double UserGroup::rate_multiplier() const {
  switch (config_.curve) {
    case LoadCurve::kSteady:
      return 1.0;
    case LoadCurve::kDiurnal: {
      const double phase = 2.0 * 3.14159265358979323846 *
                           sim::to_seconds(sim()->now()) /
                           sim::to_seconds(config_.diurnal_period);
      return 1.0 + kDiurnalDepth * std::sin(phase);
    }
    case LoadCurve::kBurst:
      return burst_on_ ? kBurstFactor : 1.0;
  }
  return 1.0;
}

void UserGroup::flip_burst() {
  if (stopped_) return;
  sim()->schedule(
      rng_.exponential_gap(burst_on_ ? kBurstOnMean : kBurstOffMean), [this] {
        burst_on_ = !burst_on_;
        flip_burst();
      });
}

void UserGroup::arm_think(std::size_t session) {
  // Higher load-curve multiplier -> shorter think times -> higher rate.
  const sim::Time mean = std::max<sim::Time>(
      1, static_cast<sim::Time>(static_cast<double>(config_.think_time_mean) /
                                rate_multiplier()));
  thinks_.arm(rng_.exponential_gap(mean), session);
}

void UserGroup::on_think_timer(void* self, std::uint64_t session) {
  static_cast<UserGroup*>(self)->on_think(static_cast<std::size_t>(session));
}

void UserGroup::on_think(std::size_t session) {
  if (sessions_[session] != SessionState::kThinking) return;  // ended
  sessions_[session] = SessionState::kWaiting;
  ++stats_.issued;
  client_.call(kRequestBytes, config_.deadline,
               [this, session](const RpcResult& r) { on_result(session, r); });
}

void UserGroup::on_result(std::size_t session, const RpcResult& r) {
  if (r.timed_out) {
    ++stats_.deadline_misses;
  } else {
    ++stats_.completed;
    if (!r.ok) ++stats_.degraded;
    stats_.response_bytes += r.response_bytes;
    stats_.server_cost_sum.queue_ns += r.server_cost.queue_ns;
    stats_.server_cost_sum.service_ns += r.server_cost.service_ns;
    stats_.server_cost_sum.downstream_ns += r.server_cost.downstream_ns;
  }
  // Misses land censored at their deadline (r.latency == deadline), so the
  // latency distribution reflects user experience, not just successes.
  stats_.latency.record(r.latency);
  if (config_.keep_latency_samples) stats_.samples.push_back(r.latency);
  if (r.latency > config_.slo) ++stats_.slo_violations;
  if (observer_) observer_(r);

  if (stopped_) {
    sessions_[session] = SessionState::kEnded;
    ++stats_.sessions_ended;
    maybe_close();
    return;
  }
  sessions_[session] = SessionState::kThinking;
  arm_think(session);
}

void UserGroup::stop_all() {
  if (stopped_) return;
  stopped_ = true;
  for (SessionState& s : sessions_) {
    if (s == SessionState::kThinking) {
      s = SessionState::kEnded;
      ++stats_.sessions_ended;
    }
  }
  maybe_close();
}

void UserGroup::maybe_close() {
  if (stats_.sessions_ended == stats_.sessions && client_.outstanding() == 0) {
    client_.close();
  }
}

}  // namespace acdc::app
