// Integer-scaled RFC 6298 RTT estimation for the vSwitch datapath (§3.1:
// AC/DC reconstructs sender variables in the vSwitch; a real per-flow RTT
// estimate replaces the coarse inactivity-scan RTO inference and feeds the
// base-RTT timescale the telemetry-driven virtual CCs need).
//
// Linux-style fixed point: srtt is kept in 1/8 µs units and rttvar in 1/4 µs
// units so the EWMA updates are pure integer shifts — no floating point on
// the per-ACK path. The negative-error branch uses Linux's slow-decrease
// variant: when the new sample is below srtt, the deviation term only decays
// at 1/8 of the usual gain, so one fast ACK after a congestion epoch cannot
// collapse the RTO.
#pragma once

#include <algorithm>
#include <cstdint>

namespace acdc::vswitch {

struct RttEstimator {
  std::uint32_t srtt_x8 = 0;    // smoothed RTT, µs << 3; 0 = no sample yet
  std::uint32_t rttvar_x4 = 0;  // mean deviation, µs << 2
  std::uint32_t min_rtt_us = 0; // per-flow floor (τ for PowerTCP); 0 = none

  bool valid() const { return srtt_x8 != 0; }

  // Smoothed RTT in whole microseconds.
  std::uint32_t srtt_us() const { return srtt_x8 >> 3; }

  // Folds one completed measurement in. Karn's rule is the caller's job:
  // never feed a sample whose segment was retransmitted.
  void on_sample(std::uint32_t rtt_us) {
    if (rtt_us == 0) rtt_us = 1;  // sub-µs fabric RTT still counts
    if (min_rtt_us == 0 || rtt_us < min_rtt_us) min_rtt_us = rtt_us;
    if (!valid()) {
      // First sample: srtt = rtt, rttvar = rtt/2 (RFC 6298 §2.2).
      srtt_x8 = rtt_us << 3;
      rttvar_x4 = rtt_us << 1;
      return;
    }
    // srtt += (rtt - srtt) / 8, carried out in x8 units.
    std::int32_t err = static_cast<std::int32_t>(rtt_us) -
                       static_cast<std::int32_t>(srtt_x8 >> 3);
    srtt_x8 = static_cast<std::uint32_t>(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(srtt_x8) + err));
    if (err < 0) {
      err = -err;
      err -= static_cast<std::int32_t>(rttvar_x4 >> 2);
      if (err > 0) err >>= 3;  // slow decrease
    } else {
      err -= static_cast<std::int32_t>(rttvar_x4 >> 2);
    }
    rttvar_x4 = static_cast<std::uint32_t>(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(rttvar_x4) + err));
  }

  // RTO = srtt + 4·rttvar (the x4 scaling makes the +4· a plain add), with
  // the exponential backoff applied as a shift. Clamping to the deployment's
  // RTO bounds is the caller's policy (SenderModule::infer_timeouts).
  std::uint64_t rto_us(unsigned backoff = 0) const {
    std::uint64_t rto = static_cast<std::uint64_t>(srtt_x8 >> 3) + rttvar_x4;
    if (rto == 0) rto = 1;
    return rto << std::min(backoff, 24u);
  }
};

}  // namespace acdc::vswitch
