// Two-tier leaf–spine fabric with ECMP, the multi-pathed topology behind
// §2.3's argument: a VM-pair's flows hash onto distinct core paths, so
// VM-level bandwidth arbitration cannot see (or fix) a congested core
// link — only flow-granular congestion control can.
#pragma once

#include <vector>

#include "exp/scenario.h"

namespace acdc::exp {

struct LeafSpineConfig {
  ScenarioConfig scenario;
  int leaves = 2;
  int spines = 2;
  int hosts_per_leaf = 4;
};

class LeafSpine {
 public:
  explicit LeafSpine(const LeafSpineConfig& config);

  Scenario& scenario() { return scenario_; }
  int leaves() const { return static_cast<int>(leaf_switches_.size()); }
  int spines() const { return static_cast<int>(spine_switches_.size()); }
  int hosts_per_leaf() const { return hosts_per_leaf_; }

  host::Host* host(int leaf, int index) {
    return hosts_[static_cast<std::size_t>(leaf * hosts_per_leaf_ + index)];
  }
  // Leaf-major: host(l, i) is hosts()[l * hosts_per_leaf() + i].
  const std::vector<host::Host*>& hosts() const { return hosts_; }
  net::Switch* leaf(int i) {
    return leaf_switches_[static_cast<std::size_t>(i)];
  }
  net::Switch* spine(int i) {
    return spine_switches_[static_cast<std::size_t>(i)];
  }
  // Uplink egress port leaf l -> spine s (for queue inspection).
  net::Port* uplink(int l, int s) {
    return uplinks_[static_cast<std::size_t>(l * spines() + s)];
  }

 private:
  Scenario scenario_;
  int hosts_per_leaf_;
  std::vector<net::Switch*> leaf_switches_;
  std::vector<net::Switch*> spine_switches_;
  std::vector<host::Host*> hosts_;
  std::vector<net::Port*> uplinks_;
};

}  // namespace acdc::exp
