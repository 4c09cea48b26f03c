// Single-switch star used by the macrobenchmarks (§5.2: "we attach all
// servers to a single switch") and the incast experiments — the 48-port
// G8264 analogue.
#pragma once

#include <vector>

#include "exp/scenario.h"

namespace acdc::exp {

struct StarConfig {
  ScenarioConfig scenario;
  int hosts = 17;
  // Per-spoke link-delay skew: host i's link gets host_link_delay +
  // i * host_delay_skew. Models cable-length heterogeneity; a nonzero skew
  // decorrelates the spokes so independent uplinks never deliver to the hub
  // on the same tick (same-tick ties are the one thing the serial and
  // sharded engines order differently).
  sim::Time host_delay_skew = 0;
};

class Star {
 public:
  explicit Star(const StarConfig& config);

  Scenario& scenario() { return scenario_; }
  net::Switch* hub() { return hub_; }
  host::Host* host(int i) { return hosts_[static_cast<std::size_t>(i)]; }
  int host_count() const { return static_cast<int>(hosts_.size()); }
  const std::vector<host::Host*>& hosts() const { return hosts_; }

 private:
  Scenario scenario_;
  net::Switch* hub_ = nullptr;
  std::vector<host::Host*> hosts_;
};

}  // namespace acdc::exp
