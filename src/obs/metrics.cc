#include "obs/metrics.h"

#include <ostream>

namespace acdc::obs {

std::int64_t Histogram::bucket_upper(std::size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return std::int64_t{1} << 62;  // saturate: top bucket
  return (std::int64_t{1} << i) - 1;
}

std::int64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based; walk buckets until it is covered.
  const std::int64_t rank =
      static_cast<std::int64_t>(q * static_cast<double>(count_ - 1)) + 1;
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Clamp to observed extremes so p0/p100 stay exact.
      const std::int64_t upper = bucket_upper(i);
      return upper > max_ ? max_ : (upper < min() ? min() : upper);
    }
  }
  return max_;
}

int MetricsRegistry::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::int64_t& MetricsRegistry::counter(const std::string& name) {
  const int idx = index_of(name);
  if (idx >= 0) {
    // Re-request of an owned counter returns the same cell.
    for (auto& cell : owned_) {
      if (cell.get() == metrics_[static_cast<std::size_t>(idx)].source) {
        return *cell;
      }
    }
  }
  owned_.push_back(std::make_unique<std::int64_t>(0));
  register_counter(name, owned_.back().get());
  return *owned_.back();
}

void MetricsRegistry::register_counter(const std::string& name,
                                       const std::int64_t* source) {
  names_.push_back(name);
  metrics_.push_back(Metric{source, nullptr});
}

void MetricsRegistry::register_gauge(const std::string& name,
                                     std::function<double()> fn) {
  names_.push_back(name);
  metrics_.push_back(Metric{nullptr, std::move(fn)});
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  for (auto& [existing, hist] : histograms_) {
    if (existing == name) return *hist;
  }
  histograms_.emplace_back(name, std::make_unique<Histogram>());
  Histogram* h = histograms_.back().second.get();
  register_gauge(name + ".count",
                 [h] { return static_cast<double>(h->count()); });
  register_gauge(name + ".p50",
                 [h] { return static_cast<double>(h->quantile(0.5)); });
  register_gauge(name + ".p99",
                 [h] { return static_cast<double>(h->quantile(0.99)); });
  register_gauge(name + ".p999",
                 [h] { return static_cast<double>(h->quantile(0.999)); });
  register_gauge(name + ".max", [h] { return static_cast<double>(h->max()); });
  return *h;
}

double MetricsRegistry::read(const Metric& m) const {
  if (m.gauge) return m.gauge();
  return m.source != nullptr ? static_cast<double>(*m.source) : 0.0;
}

double MetricsRegistry::value(const std::string& name) const {
  const int idx = index_of(name);
  return idx < 0 ? 0.0 : read(metrics_[static_cast<std::size_t>(idx)]);
}

void MetricsRegistry::sample(sim::Time now) {
  Snapshot snap;
  snap.t = now;
  snap.values.reserve(metrics_.size());
  for (const Metric& m : metrics_) snap.values.push_back(read(m));
  snapshots_.push_back(std::move(snap));
}

void MetricsRegistry::schedule_sampling(sim::Simulator* sim,
                                        sim::Time interval, sim::Time until) {
  sample(sim->now());
  tick(sim, interval, until);
}

void MetricsRegistry::tick(sim::Simulator* sim, sim::Time interval,
                           sim::Time until) {
  if (until != sim::kNoTime && sim->now() + interval > until) return;
  sim->schedule(interval, [this, sim, interval, until] {
    sample(sim->now());
    tick(sim, interval, until);
  });
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "t_ns";
  for (const std::string& name : names_) os << ',' << name;
  os << '\n';
  for (const Snapshot& snap : snapshots_) {
    os << snap.t;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      os << ',' << (i < snap.values.size() ? snap.values[i] : 0.0);
    }
    os << '\n';
  }
}

}  // namespace acdc::obs
