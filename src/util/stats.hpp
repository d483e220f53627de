// hcsim — lightweight statistics primitives used by the simulator and the
// benches (counters, ratios, running mean/stddev, histograms).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "util/log.hpp"
#include "util/types.hpp"

namespace hcsim {

/// Welford running mean / variance accumulator.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  u64 count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  void merge(const RunningStat& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) { *this = o; return; }
    const double total = static_cast<double>(n_ + o.n_);
    const double delta = o.mean_ - mean_;
    m2_ += o.m2_ + delta * delta * static_cast<double>(n_) * static_cast<double>(o.n_) / total;
    mean_ += delta * static_cast<double>(o.n_) / total;
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  u64 n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// numerator / denominator pair that renders as a percentage.
struct Ratio {
  u64 num = 0;
  u64 den = 0;

  void add(bool hit) { num += hit ? 1 : 0; ++den; }
  void add_n(u64 n, u64 d) { num += n; den += d; }
  double value() const { return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0; }
  double percent() const { return 100.0 * value(); }
};

/// Fixed-bin histogram over [0, bins) with a saturating overflow bin.
class Histogram {
 public:
  explicit Histogram(std::size_t bins = 64) : counts_(bins + 1, 0) {}

  void add(u64 v, u64 weight = 1) {
    const std::size_t idx = std::min<std::size_t>(v, counts_.size() - 1);
    counts_[idx] += weight;
    total_ += weight;
    sum_ += v * weight;
  }

  u64 total() const { return total_; }
  u64 sum() const { return sum_; }
  u64 bin(std::size_t i) const { return i < counts_.size() ? counts_[i] : 0; }
  std::size_t bins() const { return counts_.size() - 1; }
  double mean() const { return total_ ? static_cast<double>(sum_) / static_cast<double>(total_) : 0.0; }

  /// Smallest v such that at least `q` (0..1) of the mass is <= v.
  u64 quantile(double q) const {
    if (total_ == 0) return 0;
    const double target = q * static_cast<double>(total_);
    double acc = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      acc += static_cast<double>(counts_[i]);
      if (acc >= target) return i;
    }
    return counts_.size() - 1;
  }

  double fraction_at_most(u64 v) const {
    if (total_ == 0) return 0.0;
    u64 acc = 0;
    for (std::size_t i = 0; i <= std::min<std::size_t>(v, counts_.size() - 1); ++i) acc += counts_[i];
    return static_cast<double>(acc) / static_cast<double>(total_);
  }

  /// Bin-wise accumulation of another histogram with the same bin count
  /// (used to splice per-window measurement histograms in trace order).
  void merge(const Histogram& o) {
    HCSIM_CHECK(counts_.size() == o.counts_.size(), "Histogram::merge: bin mismatch");
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
    sum_ += o.sum_;
  }

  /// Deserialization escape hatch (svc job journal / wire codec): restore a
  /// histogram from its serialized (counts, sum) parts. Rebuilding through
  /// add() cannot reproduce `sum_` exactly — values that landed in the
  /// overflow bin lost their magnitude — so the exact sum rides along.
  /// `counts` includes the overflow bin (bins()+1 entries); `total` is
  /// implied (add() keeps total_ == Σ counts).
  void restore(std::vector<u64> counts, u64 sum) {
    HCSIM_CHECK(!counts.empty(), "Histogram::restore: empty bin vector");
    counts_ = std::move(counts);
    total_ = 0;
    for (u64 c : counts_) total_ += c;
    sum_ = sum;
  }

  /// Bin-wise subtraction of an earlier checkpoint of *this same* histogram:
  /// `o` must be a prefix (every bin <= ours), which holds for any snapshot
  /// taken earlier in a run since bins only grow.
  void subtract(const Histogram& o) {
    HCSIM_CHECK(counts_.size() == o.counts_.size(), "Histogram::subtract: bin mismatch");
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      HCSIM_CHECK(counts_[i] >= o.counts_[i], "Histogram::subtract: not a prefix");
      counts_[i] -= o.counts_[i];
    }
    total_ -= o.total_;
    sum_ -= o.sum_;
  }

 private:
  std::vector<u64> counts_;
  u64 total_ = 0;
  u64 sum_ = 0;
};

/// Geometric mean helper for speedup aggregation across apps.
inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += std::log(std::max(x, 1e-12));
  return std::exp(acc / static_cast<double>(xs.size()));
}

}  // namespace hcsim
