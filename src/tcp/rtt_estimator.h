// RFC 6298 smoothed RTT estimation and RTO computation.
#pragma once

#include "sim/time.h"

namespace acdc::tcp {

class RttEstimator {
 public:
  explicit RttEstimator(sim::Time min_rto, sim::Time initial_rto)
      : min_rto_(min_rto), initial_rto_(initial_rto) {}

  void add_sample(sim::Time rtt);

  sim::Time srtt() const { return srtt_; }
  sim::Time rttvar() const { return rttvar_; }
  sim::Time min_rtt() const { return min_rtt_; }

  // Current retransmission timeout (without backoff).
  sim::Time rto() const;

 private:
  sim::Time min_rto_;
  sim::Time initial_rto_;
  sim::Time srtt_ = 0;
  sim::Time rttvar_ = 0;
  sim::Time min_rtt_ = 0;
};

}  // namespace acdc::tcp
