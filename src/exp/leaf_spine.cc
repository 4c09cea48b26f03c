#include "exp/leaf_spine.h"

namespace acdc::exp {

LeafSpine::LeafSpine(const LeafSpineConfig& config)
    : scenario_(config.scenario), hosts_per_leaf_(config.hosts_per_leaf) {
  for (int l = 0; l < config.leaves; ++l) {
    leaf_switches_.push_back(
        scenario_.add_switch("leaf" + std::to_string(l)));
  }
  for (int s = 0; s < config.spines; ++s) {
    spine_switches_.push_back(
        scenario_.add_switch("spine" + std::to_string(s)));
  }

  // Hosts onto leaves.
  for (int l = 0; l < config.leaves; ++l) {
    std::string leaf = "h";
    leaf += std::to_string(l);
    leaf += '.';
    for (int h = 0; h < config.hosts_per_leaf; ++h) {
      host::Host* host = scenario_.add_host(leaf + std::to_string(h));
      scenario_.attach(host, leaf_switches_[static_cast<std::size_t>(l)]);
      hosts_.push_back(host);
    }
  }

  // Leaf <-> spine links.
  std::vector<std::vector<net::Port*>> spine_to_leaf(
      static_cast<std::size_t>(config.spines));
  for (int l = 0; l < config.leaves; ++l) {
    std::vector<net::Port*> ups;
    for (int s = 0; s < config.spines; ++s) {
      net::Switch* leaf = leaf_switches_[static_cast<std::size_t>(l)];
      net::Switch* spine = spine_switches_[static_cast<std::size_t>(s)];
      // Built as a scenario trunk so the links are recorded for the
      // partitioner (and get fault injectors when configured).
      auto [up, down] = scenario_.trunk(leaf, spine);
      ups.push_back(up);
      spine_to_leaf[static_cast<std::size_t>(s)].push_back(down);
      uplinks_.push_back(up);
    }
    // Remote traffic leaves via ECMP over all uplinks.
    leaf_switches_[static_cast<std::size_t>(l)]->set_default_ecmp(ups);
  }

  // Spine routes: every host reached via its leaf's downlink.
  for (int s = 0; s < config.spines; ++s) {
    for (int l = 0; l < config.leaves; ++l) {
      for (int h = 0; h < config.hosts_per_leaf; ++h) {
        spine_switches_[static_cast<std::size_t>(s)]->add_route(
            host(l, h)->ip(),
            spine_to_leaf[static_cast<std::size_t>(s)]
                         [static_cast<std::size_t>(l)]);
      }
    }
  }
}

}  // namespace acdc::exp
