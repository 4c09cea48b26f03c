// Virtual congestion control: the algorithms AC/DC runs *in the vSwitch*
// over reconstructed per-flow state. The flagship is the paper's
// priority-extended DCTCP (Fig. 5 + Eq. 1); virtual NewReno and CUBIC show
// the §3.1 machinery supports canonical algorithms and back the per-flow
// policy engine (§3.4).
//
// Algorithms are stateless singletons: all per-flow state lives inline in
// FlowHot so the flow table stays compact (§4). VccConfig holds only what
// runs vary: the fabric base-RTT fallback and DCTCP's gain g (the paper's
// 1/16, swept by the g ablation). Every other tuning value is a constant
// beside its reader: kInitialCwndPackets below (the policer reads it too),
// the dupACK loss threshold and PowerTCP's γ and β in virtual_cc.cc, and the
// two the property tests read, VirtualPowerTcp::kCapBdps and
// VirtualFairRate::kWindowRtts.
#pragma once

#include <cstdint>

#include "acdc/flow_state.h"
#include "sim/time.h"

namespace acdc::vswitch {

// What the sender module observed on one ingress ACK (or inferred event).
struct VccEvent {
  std::int64_t acked_bytes = 0;     // snd_una advance
  std::int64_t fb_total_delta = 0;  // feedback: bytes newly covered
  std::int64_t fb_marked_delta = 0; // feedback: CE-marked bytes among them
  bool dupack = false;
  std::uint32_t dupacks = 0;  // current duplicate-ACK count
  sim::Time now = 0;
  // Per-flow measured base RTT (µs) from the hot record's RFC 6298
  // estimator; 0 until the first sample lands, in which case algorithms
  // fall back to the configured fabric-wide τ.
  double base_rtt_us = 0.0;
  // INT telemetry echoed in the extended PACK/FACK option (DESIGN.md §13);
  // valid only when `telemetry` is set. Algorithms that need it fall back
  // to Reno-style growth on telemetry-blind ACKs.
  bool telemetry = false;
  std::uint32_t qlen_bytes = 0;        // bottleneck egress queue depth
  std::uint32_t tx_bytes_per_ms = 0;   // bottleneck drain rate
  std::uint32_t fair_bytes_per_ms = 0; // min fair share across hops
  std::uint32_t ts_us = 0;             // stamping hop's clock (µs, wraps)
};

// RFC 6928 initial window (§3.1), in packets; also the policer's floor.
inline constexpr double kInitialCwndPackets = 10;

struct DctcpConfig {
  double g = 1.0 / 16.0;  // EWMA gain for the marked-fraction estimate
};

struct VccConfig {
  // Fabric base-RTT estimate (µs): the τ fallback used until the flow's own
  // RFC 6298 estimator has a sample (VccEvent::base_rtt_us).
  double base_rtt_us = 40.0;
  DctcpConfig dctcp;
};

class VirtualCc {
 public:
  virtual ~VirtualCc() = default;

  // Prepares a fresh hot record (initial window, zeroed CC aux state).
  void init(FlowHot& s) const;

  // Updates s.cwnd_bytes from one ACK's worth of evidence. Fig. 5 flow:
  // congestion? loss? -> reduce (at most once per window) else grow. The
  // Eq. 1 QoS priority comes from the hot record's policy copy (s.beta).
  virtual void on_ack(FlowHot& s, const VccConfig& cfg,
                      const VccEvent& ev) const = 0;

  // Inferred retransmission timeout (§3.1, now RFC 6298-driven).
  virtual void on_timeout(FlowHot& s, const VccConfig& cfg) const;

 protected:
  // Shared helpers -------------------------------------------------------
  // True when snd_una has passed the recorded window boundary; rolls the
  // window forward (one boundary per RTT worth of data).
  static bool window_rolled(FlowHot& s);
  // The fast-retransmit loss signal: a duplicate ACK at or past the
  // threshold.
  static bool loss(const VccEvent& ev);
  // Claims this window's one reduction: false when the window was already
  // cut, else marks it cut and restarts the window at snd_nxt.
  static bool begin_reduction(FlowHot& s);
  // The Reno cut: half the window, which also becomes ssthresh.
  static void halve(FlowHot& s);
  // Reno-style growth in bytes (slow start + congestion avoidance), used by
  // DCTCP and NewReno.
  static void reno_grow(FlowHot& s, std::int64_t acked_bytes);
  static double min_cwnd_bytes(const FlowHot& s);
  // τ for rate-to-window conversion: the flow's measured base RTT when the
  // estimator has one, else the configured fabric estimate.
  static double tau_us(const VccConfig& cfg, const VccEvent& ev);
};

class VirtualDctcp : public VirtualCc {
 public:
  void on_ack(FlowHot& s, const VccConfig& cfg,
              const VccEvent& ev) const override;
  void on_timeout(FlowHot& s, const VccConfig& cfg) const override;

  // Eq. 1: w *= 1 - (alpha - alpha*beta/2); beta = 1 is plain DCTCP.
  static double reduction_factor(double alpha, double beta);
};

class VirtualReno : public VirtualCc {
 public:
  void on_ack(FlowHot& s, const VccConfig& cfg,
              const VccEvent& ev) const override;
};

class VirtualCubic : public VirtualCc {
 public:
  void on_ack(FlowHot& s, const VccConfig& cfg,
              const VccEvent& ev) const override;
  void on_timeout(FlowHot& s, const VccConfig& cfg) const override;

 private:
  static constexpr double kC = 0.4;
  static constexpr double kBeta = 0.7;
  void cut(FlowHot& s) const;
  void grow(FlowHot& s, const VccEvent& ev) const;
};

// Virtual PowerTCP (arxiv 2112.14309): per-ACK window control driven by
// normalized power Γ = Λ·ν / e, where Λ = q̇ + txRate (current),
// ν = qlen + BDP (voltage) and e = txRate·BDP (base power). The queue
// gradient q̇ comes from differencing consecutive telemetry stamps. Update:
//   w ← γ·(w/Γ + β·mss) + (1−γ)·w,  clamped to [mss, cap·BDP].
// Telemetry-blind ACKs fall back to Reno growth so the algorithm still
// works (degraded) on paths without INT.
class VirtualPowerTcp : public VirtualCc {
 public:
  void on_ack(FlowHot& s, const VccConfig& cfg,
              const VccEvent& ev) const override;
  void on_timeout(FlowHot& s, const VccConfig& cfg) const override;

  // Window cap as a multiple of the BDP.
  static constexpr double kCapBdps = 8.0;

  // BDP in bytes implied by one telemetry sample at base RTT τ (exposed for
  // tests).
  static double bdp_bytes(double tau_us, std::uint32_t tx_bytes_per_ms);
};

// Switch-assisted fair-rate enforcement (arxiv 2106.14100): the switch
// computes a per-flow fair share from active-flow counts (net/telemetry.h)
// and the vSwitch drains it through the RWND rewrite: w = fair·τ·margin.
class VirtualFairRate : public VirtualCc {
 public:
  void on_ack(FlowHot& s, const VccConfig& cfg,
              const VccEvent& ev) const override;

  // The margin, in base RTTs: headroom for τ underestimating the true RTT;
  // the clamp still only ever lowers the VM's own window.
  static constexpr double kWindowRtts = 1.5;

  // The window a fair-share sample converts to (exposed for tests).
  static double window_bytes(double tau_us, std::uint32_t fair_bytes_per_ms);
};

// Returns the singleton algorithm for a policy kind.
const VirtualCc& virtual_cc_for(VccKind kind);

}  // namespace acdc::vswitch
