// Sample accumulator with percentiles, and Jain's fairness index — the
// metrics of the paper's evaluation (§5).
#pragma once

#include <cstddef>
#include <vector>

namespace acdc::stats {

class Sampler {
 public:
  void add(double value);

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double min() const;
  double max() const;

  // p in [0, 100]; nearest-rank with linear interpolation.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

// Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 is perfectly fair.
double jain_fairness_index(const std::vector<double>& allocations);

}  // namespace acdc::stats
