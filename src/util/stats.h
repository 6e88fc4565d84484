// Streaming summary statistics and fixed-bin histograms.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace dtfe {

/// Welford streaming accumulator: mean / variance / extrema in one pass.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::size_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance (n denominator); 0 for fewer than 2 samples.
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Merge another accumulator (parallel reduction support).
  void merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) { *this = o; return; }
    const double na = static_cast<double>(n_), nb = static_cast<double>(o.n_);
    const double delta = o.mean_ - mean_;
    const double nt = na + nb;
    m2_ += o.m2_ + delta * delta * na * nb / nt;
    mean_ += delta * nb / nt;
    n_ += o.n_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0, m2_ = 0.0, sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Uniform-bin histogram over [lo, hi); out-of-range samples are clamped into
/// the end bins (matching how the paper's ratio histograms are displayed).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0) {}

  void add(double x) {
    const double t = (x - lo_) / (hi_ - lo_);
    auto b = static_cast<std::ptrdiff_t>(std::floor(t * static_cast<double>(counts_.size())));
    b = std::clamp<std::ptrdiff_t>(b, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(b)];
  }

  std::size_t bins() const { return counts_.size(); }
  std::size_t count(std::size_t b) const { return counts_[b]; }
  std::size_t total() const {
    std::size_t t = 0;
    for (auto c : counts_) t += c;
    return t;
  }
  double bin_center(std::size_t b) const {
    return lo_ + (hi_ - lo_) * (static_cast<double>(b) + 0.5) / static_cast<double>(counts_.size());
  }

  /// Index of the most populated bin.
  std::size_t mode_bin() const {
    return static_cast<std::size_t>(
        std::max_element(counts_.begin(), counts_.end()) - counts_.begin());
  }

  /// Console rendering: one line per bin with a proportional bar. Used by the
  /// benches that reproduce the paper's histogram figures.
  std::string render(int bar_width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
};

/// Mean of a span (0 for empty).
double mean_of(std::span<const double> xs);
/// Population standard deviation of a span (0 for size < 2).
double stddev_of(std::span<const double> xs);

}  // namespace dtfe
