#include "app/fanout.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"

namespace acdc::app {

namespace {

constexpr std::int64_t kLeafRequestBytes = 256;

}  // namespace

FanoutCoordinator::FanoutCoordinator(sim::Simulator* sim,
                                     std::vector<RpcClient*> leaves,
                                     const FanoutConfig& config, sim::Rng rng)
    : sim_(sim), leaves_(std::move(leaves)), config_(config), rng_(rng) {
  ACDC_CHECK(!leaves_.empty(), "fanout: no leaf clients (leaves=0)");
  ACDC_CHECK(config_.fanout > 0, "fanout: fanout must be positive (fanout=%d)",
             config_.fanout);
  ACDC_CHECK(config_.leaf_deadline > 0,
             "fanout: leaf_deadline must be positive (leaf_deadline=%lld)",
             static_cast<long long>(config_.leaf_deadline));
  // Decorrelate coordinators sharing a leaf pool: each starts its rotation
  // at its own substream-drawn offset.
  cursor_ = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(leaves_.size()) - 1));
}

void FanoutCoordinator::issue(sim::Time budget, Done done) {
  const int asked =
      std::min<int>(config_.fanout, static_cast<int>(leaves_.size()));
  ++stats_.fanouts;
  // Shared round state: leaf callbacks tick it down and the last one fires
  // `done`. All leaf clients live on this coordinator's shard, so the
  // round state is single-threaded.
  struct Round {
    Aggregate agg;
    Done done;
    sim::Time t0 = 0;
    int waiting = 0;
  };
  auto round = std::make_shared<Round>();
  round->agg.asked = asked;
  round->done = std::move(done);
  round->t0 = sim_->now();
  round->waiting = asked;

  const sim::Time deadline = std::min(
      config_.leaf_deadline, std::max<sim::Time>(budget - sim_->now(), 1));
  for (int i = 0; i < asked; ++i) {
    RpcClient* leaf = leaves_[cursor_ % leaves_.size()];
    ++cursor_;
    ++stats_.leaf_calls;
    ++in_flight_;
    leaf->call(kLeafRequestBytes, deadline,
               [this, round](const RpcResult& r) {
                 --in_flight_;
                 stats_.leaf_latency.record(r.latency);
                 if (r.timed_out || !r.ok) {
                   ++stats_.leaf_misses;
                   ++round->agg.missed;
                 } else {
                   ++round->agg.answered;
                   round->agg.response_bytes += r.response_bytes;
                 }
                 if (--round->waiting == 0) {
                   round->agg.wall = sim_->now() - round->t0;
                   round->agg.ok = round->agg.answered >= round->agg.asked;
                   if (!round->agg.ok) ++stats_.degraded;
                   round->done(round->agg);
                 }
               });
  }
}

}  // namespace acdc::app
