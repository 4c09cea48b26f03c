#include "acdc/virtual_cc.h"

#include <algorithm>
#include <cmath>

namespace acdc::vswitch {

namespace {

// Duplicate ACKs that signal a loss (the standard fast-retransmit rule).
constexpr std::uint32_t kLossDupacks = 3;
// PowerTCP (arxiv 2112.14309): EWMA weight of the power-derived target, and
// the additive bandwidth share in MSS.
constexpr double kPowerTcpGamma = 0.9;
constexpr double kPowerTcpBetaMss = 1.0;

}  // namespace

void VirtualCc::init(FlowHot& s) const {
  s.cwnd_bytes = kInitialCwndPackets * s.mss;
  s.ssthresh_bytes = 1e18;
  s.alpha = 1.0;
  s.win_total = 0;
  s.win_marked = 0;
  s.window_boundary_valid = false;
  s.reduced_this_window = false;
  // All-zero bytes are a valid fresh state for every variant (flow_state.h),
  // so one fill resets whichever algorithm the flow runs.
  s.cc = CcState{};
}

double VirtualCc::min_cwnd_bytes(const FlowHot& s) {
  // The enforced window may fall to a single MSS — below host DCTCP's
  // two-packet floor, which is why AC/DC beats host DCTCP at high incast
  // fan-in (Fig. 19a).
  return static_cast<double>(s.mss);
}

double VirtualCc::tau_us(const VccConfig& cfg, const VccEvent& ev) {
  return ev.base_rtt_us > 0.0 ? ev.base_rtt_us : cfg.base_rtt_us;
}

bool VirtualCc::window_rolled(FlowHot& s) {
  if (!s.window_boundary_valid || tcp::seq_ge(s.snd_una, s.cc_window_end)) {
    s.cc_window_end = s.snd_nxt;
    s.window_boundary_valid = true;
    s.reduced_this_window = false;
    return true;
  }
  return false;
}

bool VirtualCc::loss(const VccEvent& ev) {
  return ev.dupack && ev.dupacks >= kLossDupacks;
}

bool VirtualCc::begin_reduction(FlowHot& s) {
  if (s.reduced_this_window) return false;
  s.reduced_this_window = true;
  s.cc_window_end = s.snd_nxt;
  s.window_boundary_valid = true;
  return true;
}

void VirtualCc::halve(FlowHot& s) {
  s.cwnd_bytes = std::max(min_cwnd_bytes(s), s.cwnd_bytes / 2.0);
  s.ssthresh_bytes = std::max(min_cwnd_bytes(s), s.cwnd_bytes);
}

void VirtualCc::reno_grow(FlowHot& s, std::int64_t acked_bytes) {
  if (acked_bytes <= 0) return;
  if (s.cwnd_bytes < s.ssthresh_bytes) {
    s.cwnd_bytes += static_cast<double>(acked_bytes);  // slow start
  } else {
    // +1 MSS per cwnd of ACKed data.
    s.cwnd_bytes +=
        static_cast<double>(s.mss) * static_cast<double>(acked_bytes) /
        std::max(1.0, s.cwnd_bytes);
  }
}

void VirtualCc::on_timeout(FlowHot& s, const VccConfig& cfg) const {
  (void)cfg;
  s.ssthresh_bytes = std::max(min_cwnd_bytes(s), s.cwnd_bytes / 2.0);
  s.cwnd_bytes = min_cwnd_bytes(s);
  s.window_boundary_valid = false;
}

// ------------------------------------------------------------------- DCTCP

double VirtualDctcp::reduction_factor(double alpha, double beta) {
  // Eq. 1: rwnd = rwnd * (1 - (alpha - alpha*beta/2)).
  const double cut = alpha - alpha * beta / 2.0;
  return std::clamp(1.0 - cut, 0.0, 1.0);
}

void VirtualDctcp::on_ack(FlowHot& s, const VccConfig& cfg,
                          const VccEvent& ev) const {
  // Track the fraction of CE-marked bytes reported by the receiver module.
  s.win_total += ev.fb_total_delta;
  s.win_marked += ev.fb_marked_delta;

  // Update alpha once per window of data (≈ once per RTT, Fig. 5).
  if (window_rolled(s) && s.win_total > 0) {
    const double fraction = static_cast<double>(s.win_marked) /
                            static_cast<double>(s.win_total);
    s.alpha = (1.0 - cfg.dctcp.g) * s.alpha + cfg.dctcp.g * fraction;
    s.win_total = 0;
    s.win_marked = 0;
  }

  const bool lost = loss(ev);
  const bool congestion = ev.fb_marked_delta > 0;

  if (lost) {
    // Fig. 5: loss implies maximal alpha, then the window is cut (at most
    // once per window). Retransmission itself is the VM's job.
    s.alpha = 1.0;
  }
  // An ACK that finds this window already cut keeps growing like the host
  // stack, which runs tcp_cong_avoid() on every ACK outside the reduction.
  if ((lost || congestion) && begin_reduction(s)) {
    s.cwnd_bytes = std::max(min_cwnd_bytes(s),
                            s.cwnd_bytes * reduction_factor(s.alpha, s.beta));
    s.ssthresh_bytes = std::max(min_cwnd_bytes(s), s.cwnd_bytes);
    return;
  }
  if (!ev.dupack) reno_grow(s, ev.acked_bytes);  // tcp_cong_avoid()
}

void VirtualDctcp::on_timeout(FlowHot& s, const VccConfig& cfg) const {
  s.alpha = 1.0;
  VirtualCc::on_timeout(s, cfg);
}

// -------------------------------------------------------------------- Reno

void VirtualReno::on_ack(FlowHot& s, const VccConfig& cfg,
                         const VccEvent& ev) const {
  (void)cfg;
  window_rolled(s);
  if (loss(ev) || ev.fb_marked_delta > 0) {
    if (begin_reduction(s)) halve(s);
    return;
  }
  if (!ev.dupack) reno_grow(s, ev.acked_bytes);
}

// ------------------------------------------------------------------- CUBIC

void VirtualCubic::cut(FlowHot& s) const {
  CubicCc& c = s.cc.cubic;
  const double w = s.cwnd_bytes;
  c.w_last_max = w < c.w_last_max ? w * (2.0 - kBeta) / 2.0 : w;
  s.cwnd_bytes = std::max(min_cwnd_bytes(s), w * kBeta);
  s.ssthresh_bytes = std::max(min_cwnd_bytes(s), s.cwnd_bytes);
  c.epoch_valid = false;
}

void VirtualCubic::grow(FlowHot& s, const VccEvent& ev) const {
  if (s.cwnd_bytes < s.ssthresh_bytes) {
    s.cwnd_bytes += static_cast<double>(ev.acked_bytes);
    return;
  }
  CubicCc& c = s.cc.cubic;
  const double mss = static_cast<double>(s.mss);
  if (!c.epoch_valid) {
    c.epoch_valid = true;
    c.epoch_start = ev.now;
    const double w_pkts = s.cwnd_bytes / mss;
    const double wmax_pkts = c.w_last_max / mss;
    if (w_pkts < wmax_pkts) {
      c.k = std::cbrt((wmax_pkts - w_pkts) / kC);
      c.origin = wmax_pkts;
    } else {
      c.k = 0.0;
      c.origin = w_pkts;
    }
    c.tcp_wnd = w_pkts;
  }
  const double t = sim::to_seconds(ev.now - c.epoch_start);
  const double delta = t - c.k;
  const double target_pkts = c.origin + kC * delta * delta * delta;
  const double w_pkts = s.cwnd_bytes / mss;
  const double acked_pkts =
      static_cast<double>(ev.acked_bytes) / std::max(1.0, mss);
  double next_pkts = w_pkts;
  if (target_pkts > w_pkts) {
    next_pkts += (target_pkts - w_pkts) / w_pkts * acked_pkts;
  } else {
    next_pkts += 0.01 * acked_pkts / w_pkts;
  }
  c.tcp_wnd += 3.0 * (1.0 - kBeta) / (1.0 + kBeta) * acked_pkts / w_pkts;
  next_pkts = std::max(next_pkts, c.tcp_wnd);
  s.cwnd_bytes = next_pkts * mss;
}

void VirtualCubic::on_ack(FlowHot& s, const VccConfig& cfg,
                          const VccEvent& ev) const {
  (void)cfg;
  window_rolled(s);
  if (loss(ev) || ev.fb_marked_delta > 0) {
    if (begin_reduction(s)) cut(s);
    return;
  }
  if (!ev.dupack) grow(s, ev);
}

void VirtualCubic::on_timeout(FlowHot& s, const VccConfig& cfg) const {
  VirtualCc::on_timeout(s, cfg);
  s.cc.cubic.epoch_valid = false;
}

// ---------------------------------------------------------------- PowerTCP

double VirtualPowerTcp::bdp_bytes(double tau_us,
                                  std::uint32_t tx_bytes_per_ms) {
  const double rate = std::max(1.0, static_cast<double>(tx_bytes_per_ms));
  return rate * (tau_us / 1000.0);
}

void VirtualPowerTcp::on_ack(FlowHot& s, const VccConfig& cfg,
                             const VccEvent& ev) const {
  window_rolled(s);
  if (loss(ev)) {
    if (begin_reduction(s)) halve(s);
    return;
  }
  if (ev.dupack) return;
  if (!ev.telemetry) {
    reno_grow(s, ev.acked_bytes);
    return;
  }

  PowerCc& pt = s.cc.pt;
  const double tau = std::max(1.0, tau_us(cfg, ev));
  const double rate = std::max(1.0, static_cast<double>(ev.tx_bytes_per_ms));
  const double bdp = bdp_bytes(tau, ev.tx_bytes_per_ms);

  // Current Λ = q̇ + txRate (bytes/ms). The gradient differences this stamp
  // against the previous one; both the timestamp and the subtraction are
  // u32-wrap safe. Stale or same-µs samples contribute no gradient.
  double gradient = 0.0;
  double dt_smooth_us = 0.0;
  const bool had_prev = pt.prev_valid;
  if (pt.prev_valid) {
    const std::uint32_t dt_us = ev.ts_us - pt.prev_ts_us;
    if (dt_us > 0 && dt_us < 1'000'000'000u) {
      const double dq = static_cast<double>(ev.qlen_bytes) -
                        static_cast<double>(pt.prev_qlen_bytes);
      gradient = dq / (static_cast<double>(dt_us) / 1000.0);
      dt_smooth_us = static_cast<double>(dt_us);
    }
  }
  pt.prev_qlen_bytes = ev.qlen_bytes;
  pt.prev_ts_us = ev.ts_us;
  pt.prev_valid = true;

  const double current = std::max(1.0, gradient + rate);   // Λ
  const double voltage = static_cast<double>(ev.qlen_bytes) + bdp;  // ν
  const double base_power = rate * bdp;                    // e = b²τ
  const double power_inst = current * voltage / base_power;
  // Smooth normalized power over the base-RTT timescale τ (the paper's
  // Γ ← (Γ·(τ−∆t) + γ_inst·∆t)/τ): one sample differenced across a
  // pure-drain gap (gradient ≈ -rate ⇒ Λ at its floor) must not slam the
  // window to the cap on its own.
  if (!had_prev) {
    pt.power = power_inst;
  } else {
    const double dt = std::min(dt_smooth_us, tau);
    pt.power = (pt.power * (tau - dt) + power_inst * dt) / tau;
  }
  const double gamma_norm = std::max(1e-9, pt.power);

  const double target = s.cwnd_bytes / gamma_norm + kPowerTcpBetaMss * s.mss;
  const double w =
      kPowerTcpGamma * target + (1.0 - kPowerTcpGamma) * s.cwnd_bytes;
  const double cap = std::max(min_cwnd_bytes(s), kCapBdps * bdp);
  s.cwnd_bytes = std::clamp(w, min_cwnd_bytes(s), cap);
}

void VirtualPowerTcp::on_timeout(FlowHot& s, const VccConfig& cfg) const {
  VirtualCc::on_timeout(s, cfg);
  s.cc.pt.prev_valid = false;
}

// --------------------------------------------------------------- Fair rate

double VirtualFairRate::window_bytes(double tau_us,
                                     std::uint32_t fair_bytes_per_ms) {
  return static_cast<double>(fair_bytes_per_ms) * (tau_us / 1000.0) *
         kWindowRtts;
}

void VirtualFairRate::on_ack(FlowHot& s, const VccConfig& cfg,
                             const VccEvent& ev) const {
  window_rolled(s);
  if (loss(ev)) {
    if (begin_reduction(s)) halve(s);
    return;
  }
  if (ev.dupack) return;
  if (!ev.telemetry || ev.fair_bytes_per_ms == 0) {
    // No switch allocation yet (e.g. handshake, or an INT-less path):
    // probe gently like Reno until one arrives.
    reno_grow(s, ev.acked_bytes);
    return;
  }
  // Track the switch's allocation directly — the controller's whole point
  // is that the vSwitch pins the VM to the fabric-computed fair share.
  s.cwnd_bytes = std::max(
      min_cwnd_bytes(s),
      window_bytes(tau_us(cfg, ev), ev.fair_bytes_per_ms));
}

// ----------------------------------------------------------------- Registry

const VirtualCc& virtual_cc_for(VccKind kind) {
  static const VirtualDctcp dctcp;
  static const VirtualReno reno;
  static const VirtualCubic cubic;
  static const VirtualPowerTcp powertcp;
  static const VirtualFairRate fairrate;
  switch (kind) {
    case VccKind::kReno:
      return reno;
    case VccKind::kCubic:
      return cubic;
    case VccKind::kPowerTcp:
      return powertcp;
    case VccKind::kFairRate:
      return fairrate;
    case VccKind::kDctcp:
      break;
  }
  return dctcp;
}

}  // namespace acdc::vswitch
