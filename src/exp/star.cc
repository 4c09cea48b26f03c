#include "exp/star.h"

namespace acdc::exp {

Star::Star(const StarConfig& config) : scenario_(config.scenario) {
  hub_ = scenario_.add_switch("hub");
  for (int i = 0; i < config.hosts; ++i) {
    const std::string index = std::to_string(i);
    host::Host* h = scenario_.add_host("h" + index);
    scenario_.attach(h, hub_,
                     config.host_delay_skew > 0
                         ? config.scenario.host_link_delay +
                               i * config.host_delay_skew
                         : sim::Time{0});
    hosts_.push_back(h);
  }
}

}  // namespace acdc::exp
