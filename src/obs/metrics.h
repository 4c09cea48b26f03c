// Unified metrics registry: named counters and gauges from every layer of
// the datapath (AcdcStats, queue/NIC/switch stats, flow-table sizes), plus
// periodic snapshot sampling scheduled on the Simulator so a run yields a
// time series per metric, not just end-of-run totals.
//
// Three registration styles:
//   - counter("x")           -> registry-owned int64 the caller increments;
//   - register_counter(p)    -> absorbs an existing int64 counter in place
//                               (AcdcStats / QueueStats stay the single
//                               source of truth — no double accounting);
//   - register_gauge(fn)     -> sampled callback (queue occupancy, table
//                               sizes, pool usage).
//
// Registered pointers/callbacks must outlive the registry's last sample().
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace acdc::obs {

// Log-bucketed histogram over non-negative int64 samples, fixed memory
// (one bucket per bit width -> 65 counters covers the full range). Bucket
// boundaries are powers of two, so quantiles carry at most 2x relative
// error — plenty for RTT / queue-sojourn distributions, and recording is a
// handful of instructions on the datapath hot path.
class Histogram {
 public:
  void record(std::int64_t v) {
    if (v < 0) v = 0;
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    if (count_ == 1 || v < min_) min_ = v;
  }

  std::int64_t count() const { return count_; }
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  // Upper bound of the bucket holding the q-quantile sample (0 <= q <= 1).
  std::int64_t quantile(double q) const;

  static constexpr std::size_t kBuckets = 65;
  // Bucket i holds samples with bit_width(v) == i, i.e. [2^(i-1), 2^i).
  const std::array<std::int64_t, kBuckets>& buckets() const {
    return buckets_;
  }
  static std::size_t bucket_of(std::int64_t v) {
    return std::bit_width(static_cast<std::uint64_t>(v));
  }
  // Inclusive upper bound of bucket i's value range.
  static std::int64_t bucket_upper(std::size_t i);

  // Adds another histogram's samples into this one (bucket-wise). Used to
  // aggregate per-group / per-shard distributions into one — e.g. the
  // service tier's request-latency histograms — without losing the
  // fixed-memory representation.
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    if (other.count_ > 0) {
      if (count_ == 0 || other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
      count_ += other.count_;
      sum_ += other.sum_;
    }
  }

  void clear() { *this = Histogram{}; }

 private:
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

class MetricsRegistry {
 public:
  struct Snapshot {
    sim::Time t = 0;
    // Parallel to names(); metrics registered after this snapshot was taken
    // are absent (values.size() <= names().size()).
    std::vector<double> values;
  };

  // Registry-owned counter; returns a stable reference.
  std::int64_t& counter(const std::string& name);
  // Absorbs an external counter; `source` must outlive the registry's use.
  void register_counter(const std::string& name, const std::int64_t* source);
  void register_gauge(const std::string& name, std::function<double()> fn);
  // Registry-owned histogram (stable reference; same name -> same
  // histogram). Registration auto-derives gauges `<name>.count`,
  // `<name>.p50`, `<name>.p99`, `<name>.p999`, `<name>.max`, so histograms
  // ride the existing snapshot sampling and CSV/JSONL export unchanged.
  Histogram& histogram(const std::string& name);

  std::size_t metric_count() const { return metrics_.size(); }
  const std::vector<std::string>& names() const { return names_; }
  bool has(const std::string& name) const { return index_of(name) >= 0; }
  // Current live value (0.0 for unknown names).
  double value(const std::string& name) const;

  // ---- Snapshot sampling ----
  void sample(sim::Time now);
  // Samples now and then every `interval` on the simulator, until `until`
  // (kNoTime = no bound — only safe with Simulator::run_until, since an
  // unbounded sampler never lets Simulator::run() drain).
  void schedule_sampling(sim::Simulator* sim, sim::Time interval,
                         sim::Time until = sim::kNoTime);
  const std::vector<Snapshot>& snapshots() const { return snapshots_; }

  // ---- Export ----
  // CSV: header "t_ns,<name>,..." then one row per snapshot (short rows
  // padded with 0 for late-registered metrics).
  void write_csv(std::ostream& os) const;

 private:
  struct Metric {
    const std::int64_t* source = nullptr;  // external or owned counter
    std::function<double()> gauge;         // wins when set
  };

  int index_of(const std::string& name) const;
  double read(const Metric& m) const;
  void tick(sim::Simulator* sim, sim::Time interval, sim::Time until);

  std::vector<std::string> names_;
  std::vector<Metric> metrics_;
  // Deque-like stable storage for owned counters (vector would invalidate
  // the registered pointers on growth).
  std::vector<std::unique_ptr<std::int64_t>> owned_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
  std::vector<Snapshot> snapshots_;
};

}  // namespace acdc::obs
