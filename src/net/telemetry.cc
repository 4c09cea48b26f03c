#include "net/telemetry.h"

#include <algorithm>

#include "sim/hash.h"

namespace acdc::net {
namespace {

// Distinct-flow counting epoch. The published active-flow count is the
// running maximum of the current epoch's set size and the previous epoch's
// total, so new flows raise the count immediately and departed flows age
// out within one epoch.
constexpr sim::Time kEpoch = sim::microseconds(200);
// Hard cap on tracked distinct flows per epoch (bounds memory; counts
// saturate at this value under pathological churn).
constexpr std::size_t kMaxTrackedFlows = 65536;

}  // namespace

TelemetrySampler::TelemetrySampler(sim::Rate rate)
    : rate_bpms_(static_cast<std::uint32_t>(
          std::max<sim::Rate>(1, rate / 8000))) {}

void TelemetrySampler::roll_epoch(sim::Time now) {
  if (now < epoch_end_) return;
  // A gap of one or more whole epochs with no traffic means the previous
  // epoch saw nothing; otherwise the set we just filled is the previous
  // epoch's census.
  last_epoch_flows_ = (now - epoch_end_ >= kEpoch) ? 0 : seen_.size();
  seen_.clear();
  epoch_end_ = (now / kEpoch + 1) * kEpoch;
}

std::int64_t TelemetrySampler::active_flows() const {
  return static_cast<std::int64_t>(
      std::max<std::size_t>(1, std::max(seen_.size(), last_epoch_flows_)));
}

std::uint32_t TelemetrySampler::fair_share_bytes_per_ms() const {
  return static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, rate_bpms_ / active_flows()));
}

void TelemetrySampler::stamp(Packet& p, std::int64_t queue_bytes,
                             sim::Time now) {
  if (p.payload_bytes <= 0) return;
  roll_epoch(now);
  if (seen_.size() < kMaxTrackedFlows) {
    seen_.insert(sim::tuple_hash(p.ip.src, p.ip.dst, p.tcp.src_port,
                                 p.tcp.dst_port));
  }

  TelemetryStamp here;
  here.qlen_bytes = static_cast<std::uint32_t>(std::min<std::int64_t>(
      std::max<std::int64_t>(0, queue_bytes), 0xffffffffll));
  here.tx_bytes_per_ms = rate_bpms_;
  here.fair_bytes_per_ms = fair_share_bytes_per_ms();
  here.ts_us = static_cast<std::uint32_t>(now / 1000);

  if (!p.telem.has_value()) {
    p.telem = here;
    return;
  }
  // Bottleneck merge: the hop with the larger drain time (qlen/rate) wins
  // the queue words; ties go to the slower link; the fair share is the
  // minimum across all hops. Cross-multiplied in 64-bit to stay exact.
  TelemetryStamp& prev = *p.telem;
  const std::uint64_t here_drain =
      static_cast<std::uint64_t>(here.qlen_bytes) * prev.tx_bytes_per_ms;
  const std::uint64_t prev_drain =
      static_cast<std::uint64_t>(prev.qlen_bytes) * here.tx_bytes_per_ms;
  const bool here_wins =
      here_drain > prev_drain ||
      (here_drain == prev_drain && here.tx_bytes_per_ms < prev.tx_bytes_per_ms);
  const std::uint32_t min_fair =
      std::min(prev.fair_bytes_per_ms, here.fair_bytes_per_ms);
  if (here_wins) {
    prev.qlen_bytes = here.qlen_bytes;
    prev.tx_bytes_per_ms = here.tx_bytes_per_ms;
    prev.ts_us = here.ts_us;
  }
  prev.fair_bytes_per_ms = min_fair;
}

}  // namespace acdc::net
