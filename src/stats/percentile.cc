#include "stats/percentile.h"

#include <algorithm>
#include <cassert>

namespace acdc::stats {

void Sampler::add(double value) {
  values_.push_back(value);
  sorted_valid_ = false;
}

void Sampler::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = values_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Sampler::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Sampler::min() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double Sampler::max() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double Sampler::percentile(double p) const {
  ensure_sorted();
  if (sorted_.empty()) return 0.0;
  assert(p >= 0.0 && p <= 100.0);
  if (sorted_.size() == 1) return sorted_.front();
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double jain_fairness_index(const std::vector<double>& allocations) {
  if (allocations.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : allocations) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(allocations.size()) * sum_sq);
}

}  // namespace acdc::stats
