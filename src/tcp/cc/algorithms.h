// The congestion-control algorithms evaluated in the paper (Figs. 1, 17,
// Table 1): NewReno, CUBIC, DCTCP, Vegas, Illinois, HighSpeed — plus an
// intentionally non-conforming "aggressive" stack used to exercise AC/DC's
// policing (§3.3).
#pragma once

#include <cstdint>
#include <vector>

#include "tcp/cc/congestion_control.h"

namespace acdc::tcp {

// RFC 6582 NewReno (the increase/decrease rules; recovery logic lives in the
// connection).
class NewReno : public CongestionControl {
 public:
  double ssthresh_after_loss(const CcState& s) override {
    return std::max(kMinCwnd, s.cwnd / 2.0);
  }
};

// CUBIC (Ha, Rhee, Xu 2008) as in Linux: cubic window growth keyed on time
// since the last reduction, a TCP-friendly region, and fast convergence.
class Cubic : public CongestionControl {
 public:
  void init(CcState& s) override;
  void on_ack(CcState& s, const AckSample& ack) override;
  double ssthresh_after_loss(const CcState& s) override;
  void on_window_reduction(CcState& s) override;
  void on_rto(CcState& s) override;

 private:
  void reset_epoch();

  static constexpr double kC = 0.4;     // cubic scaling constant
  static constexpr double kBeta = 0.7;  // multiplicative decrease factor

  double w_max_ = 0.0;
  double w_last_max_ = 0.0;
  sim::Time epoch_start_ = sim::kNoTime;
  double k_ = 0.0;             // time (seconds) to return to w_max
  double origin_point_ = 0.0;  // window at the plateau
  double tcp_cwnd_ = 0.0;      // TCP-friendliness estimator
  double ack_count_ = 0.0;
};

// DCTCP (Alizadeh et al. 2010): EWMA of the fraction of CE-marked bytes;
// window cut proportional to alpha, at most once per window of data.
// As the host stack it relies on the receiver's accurate ECE echo.
class Dctcp : public CongestionControl {
 public:
  static constexpr double kG = 1.0 / 16.0;  // EWMA gain (Linux default)

  void init(CcState& s) override;
  void on_ack(CcState& s, const AckSample& ack) override;
  double ssthresh_after_loss(const CcState& s) override {
    return std::max(kMinCwnd, s.cwnd / 2.0);
  }
  double ssthresh_after_ecn(const CcState& s) override;

  double alpha() const { return alpha_; }

 private:
  double alpha_ = 1.0;
  std::int64_t window_acked_bytes_ = 0;
  std::int64_t window_marked_bytes_ = 0;
  std::int64_t bytes_until_update_ = 0;
};

// TCP Vegas (Brakmo & Peterson): delay-based; compares expected and actual
// throughput once per RTT and nudges the window toward alpha..beta queued
// packets.
class Vegas : public CongestionControl {
 public:
  void init(CcState& s) override;
  void on_ack(CcState& s, const AckSample& ack) override;
  double ssthresh_after_loss(const CcState& s) override {
    return std::max(kMinCwnd, s.cwnd / 2.0);
  }

 private:
  static constexpr double kAlpha = 2.0;
  static constexpr double kBeta = 4.0;
  static constexpr double kGamma = 1.0;

  sim::Time base_rtt_ = 0;
  sim::Time min_rtt_in_round_ = 0;
  int samples_in_round_ = 0;
  sim::Time round_start_ = 0;
  bool even_round_ = false;
};

// TCP-Illinois (Liu, Basar, Srikant): loss-based with delay-adaptive AIMD
// parameters alpha(d) and beta(d).
class Illinois : public CongestionControl {
 public:
  void init(CcState& s) override;
  void on_ack(CcState& s, const AckSample& ack) override;
  double ssthresh_after_loss(const CcState& s) override;
  void on_window_reduction(CcState& s) override;

 private:
  void update_params(CcState& s);

  static constexpr double kAlphaMax = 10.0;
  static constexpr double kAlphaMin = 0.3;
  static constexpr double kBetaMin = 0.125;
  static constexpr double kBetaMax = 0.5;
  static constexpr int kTheta = 5;  // RTTs at low delay before alpha_max

  double alpha_ = 1.0;
  double beta_ = kBetaMax;
  sim::Time sum_rtt_ = 0;
  int cnt_rtt_ = 0;
  sim::Time base_rtt_ = 0;
  sim::Time max_rtt_ = 0;
  int rtt_low_rounds_ = 0;
  sim::Time round_start_ = 0;
};

// HighSpeed TCP (RFC 3649): a(w)/b(w) response table for large windows.
class HighSpeed : public CongestionControl {
 public:
  void on_ack(CcState& s, const AckSample& ack) override;
  double ssthresh_after_loss(const CcState& s) override;

  // RFC 3649 response lookup, exposed for tests.
  static double additive_increase(double cwnd);
  static double decrease_factor(double cwnd);
};

// A deliberately non-conforming stack: grows multiplicatively on every ACK
// and never backs off. Combined with a connection configured to ignore the
// peer's receive window it models the tenant AC/DC must police (§3.3).
class AggressiveCc : public CongestionControl {
 public:
  void on_ack(CcState& s, const AckSample& ack) override {
    s.cwnd += ack.acked_packets;  // exponential growth forever
  }
  double ssthresh_after_loss(const CcState& s) override { return s.cwnd; }
  void on_rto(CcState& s) override { s.cwnd = std::max(s.cwnd, 10.0); }
};

}  // namespace acdc::tcp
