#include "workload/churn.h"

#include <algorithm>

#include "sim/check.h"

namespace acdc::workload {

namespace {

// kBurstyOnOff's exponential phase-duration means, and its arrival-rate
// multiplier while on (the rate is zero while off).
constexpr sim::Time kBurstOnMean = sim::milliseconds(10);
constexpr sim::Time kBurstOffMean = sim::milliseconds(40);
constexpr double kBurstFactor = 4.0;

}  // namespace

ChurnSource::ChurnSource(host::Host* sender, host::Host* receiver,
                         net::TcpPort port, tcp::TcpConfig tcp_config,
                         ChurnConfig config, sim::Rng rng, sim::Time start)
    : sender_(sender),
      receiver_(receiver),
      port_(port),
      tcp_config_(tcp_config),
      config_(std::move(config)),
      rng_(rng),
      start_(start) {
  const double rate = config_.arrival == ArrivalKind::kBurstyOnOff
                          ? config_.flows_per_sec * kBurstFactor
                          : config_.flows_per_sec;
  ACDC_CHECK(rate > 0.0,
             "churn: the arrival rate must be positive (flows_per_sec=%g, "
             "burst_factor=%g)",
             config_.flows_per_sec, kBurstFactor);
  mean_gap_ = sim::seconds(1.0 / rate);
  // Receiver side, wired once before any run: accepted connections answer
  // the client's FIN with their own and release themselves on kDone. Both
  // callbacks touch only receiver-host state, so this stays correct when
  // sender and receiver live on different shards.
  host::Host* rcv = receiver_;
  receiver_->listen(port_, tcp_config_, [rcv](tcp::TcpConnection* conn) {
    conn->on_peer_fin = [conn] { conn->close(); };
    conn->on_closed = [rcv, conn] { rcv->release_connection(conn); };
  });
  sender_->sim()->schedule_at(start_, [this] { this->start(); });
}

ChurnSource::~ChurnSource() = default;

bool ChurnSource::stopped() const {
  return config_.stop_after != sim::kNoTime &&
         sender_->sim()->now() - start_ >= config_.stop_after;
}

void ChurnSource::start() {
  switch (config_.arrival) {
    case ArrivalKind::kPoisson:
      arm_arrival();
      break;
    case ArrivalKind::kBurstyOnOff:
      burst_on_ = true;
      arm_arrival();
      sender_->sim()->schedule(rng_.exponential_gap(kBurstOnMean),
                               [this] { flip_phase(); });
      break;
  }
}

void ChurnSource::arm_arrival() {
  if (arrival_armed_ || stopped()) return;
  arrival_armed_ = true;
  sender_->sim()->schedule(rng_.exponential_gap(mean_gap_),
                           [this] { on_arrival(); });
}

void ChurnSource::on_arrival() {
  arrival_armed_ = false;
  if (stopped()) return;
  // A straggler fired after the burst phase flipped off: swallow it; the
  // next on-phase re-arms.
  if (config_.arrival == ArrivalKind::kBurstyOnOff && !burst_on_) return;
  const bool abort_flow = rng_.chance(config_.abort_probability);
  launch(config_.message_bytes, abort_flow);
  arm_arrival();
}

void ChurnSource::flip_phase() {
  if (stopped()) return;
  burst_on_ = !burst_on_;
  sender_->sim()->schedule(
      rng_.exponential_gap(burst_on_ ? kBurstOnMean : kBurstOffMean),
      [this] { flip_phase(); });
  if (burst_on_) arm_arrival();
}

void ChurnSource::launch(std::int64_t bytes, bool abort_flow) {
  if (config_.max_concurrent_per_source > 0 &&
      stats_.concurrent >= config_.max_concurrent_per_source) {
    ++stats_.skipped;
    return;
  }
  tcp::TcpConnection* conn =
      sender_->connect(receiver_->ip(), port_, tcp_config_);
  ++stats_.started;
  ++stats_.concurrent;
  stats_.peak_concurrent = std::max(stats_.peak_concurrent, stats_.concurrent);

  Flow& f = flows_[conn];
  f.bytes = std::max<std::int64_t>(bytes, 1);
  if (abort_flow) {
    f.abort_at = rng_.uniform_int(0, f.bytes);
  }

  // A Flow reference dies with the next insertion or erase in flows_, and
  // abort() reaches finish(), which erases: nothing reads a flow after it.
  conn->on_established = [this, conn] {
    const Flow* flow = flows_.find(conn);
    if (flow == nullptr) return;
    if (flow->abort_at == 0) {
      conn->abort();  // fires on_closed -> finish()
      return;
    }
    conn->send(flow->bytes);
  };
  conn->on_acked = [this, conn](std::int64_t cum) {
    Flow* found = flows_.find(conn);
    if (found == nullptr || found->data_done) return;
    Flow& flow = *found;
    if (flow.abort_at >= 0 && cum >= flow.abort_at) {
      flow.data_done = true;
      conn->abort();  // fires on_closed -> finish()
      return;
    }
    if (cum >= flow.bytes) {
      flow.data_done = true;
      if (config_.linger > 0) {
        sender_->sim()->schedule(config_.linger, [this, conn] {
          if (flows_.find(conn) != nullptr) conn->close();
        });
      } else {
        conn->close();
      }
    }
  };
  conn->on_closed = [this, conn] { finish(conn); };
}

void ChurnSource::finish(tcp::TcpConnection* conn) {
  const Flow* flow = flows_.find(conn);
  if (flow == nullptr) return;
  if (flow->abort_at >= 0) {
    ++stats_.aborted;
  } else {
    ++stats_.completed;
  }
  stats_.acked_bytes += conn->acked_payload_bytes();
  --stats_.concurrent;
  flows_.erase(conn);
  sender_->release_connection(conn);
}

}  // namespace acdc::workload
