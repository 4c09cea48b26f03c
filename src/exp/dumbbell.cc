#include "exp/dumbbell.h"

namespace acdc::exp {

Dumbbell::Dumbbell(const DumbbellConfig& config)
    : scenario_(config.scenario) {
  left_ = scenario_.add_switch("sw-left");
  right_ = scenario_.add_switch("sw-right");
  auto [lr, rl] = scenario_.trunk(left_, right_);
  bottleneck_ = lr;

  for (int i = 0; i < config.pairs; ++i) {
    const std::string pair = std::to_string(i + 1);
    host::Host* s = scenario_.add_host("s" + pair);
    host::Host* r = scenario_.add_host("r" + pair);
    scenario_.attach(s, left_);
    scenario_.attach(r, right_);
    // Cross-trunk routes.
    left_->add_route(r->ip(), lr);
    right_->add_route(s->ip(), rl);
    senders_.push_back(s);
    receivers_.push_back(r);
  }
}

}  // namespace acdc::exp
