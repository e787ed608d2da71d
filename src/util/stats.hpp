// Small statistics helpers used by the auto-tuner and the benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace daos {

double Mean(std::span<const double> xs);
/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 points.
double Stdev(std::span<const double> xs);
double Min(std::span<const double> xs);
double Max(std::span<const double> xs);
/// Linear interpolation percentile, p in [0, 100].
double Percentile(std::span<const double> xs, double p);

/// Simple accumulator for streaming mean/stddev (Welford).
class RunningStats {
 public:
  void Add(double x);
  std::size_t Count() const { return n_; }
  double Mean() const { return n_ ? mean_ : 0.0; }
  double Variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double Stdev() const;
  double Min() const { return min_; }
  double Max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace daos
