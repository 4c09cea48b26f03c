// Fig. 7b: multi-hop, multi-bottleneck "parking lot" — a chain of switches;
// one long flow crosses every trunk while per-segment cross traffic shares
// each trunk, so flows traverse different numbers of bottlenecks.
#pragma once

#include <vector>

#include "exp/scenario.h"

namespace acdc::exp {

struct ParkingLotConfig {
  ScenarioConfig scenario;
  int segments = 4;  // number of inter-switch trunks
};

class ParkingLot {
 public:
  explicit ParkingLot(const ParkingLotConfig& config);

  Scenario& scenario() { return scenario_; }
  int segments() const { return static_cast<int>(trunks_.size()); }

  // The long-path endpoints (cross all trunks).
  host::Host* long_sender() { return long_sender_; }
  host::Host* long_receiver() { return long_receiver_; }
  // Per-segment cross-traffic endpoints (cross trunk i only).
  host::Host* cross_sender(int i) {
    return cross_senders_[static_cast<std::size_t>(i)];
  }
  host::Host* cross_receiver(int i) {
    return cross_receivers_[static_cast<std::size_t>(i)];
  }

 private:
  Scenario scenario_;
  std::vector<net::Switch*> switches_;
  std::vector<net::Port*> trunks_;  // left-to-right egress ports
  host::Host* long_sender_ = nullptr;
  host::Host* long_receiver_ = nullptr;
  std::vector<host::Host*> cross_senders_;
  std::vector<host::Host*> cross_receivers_;
};

}  // namespace acdc::exp
