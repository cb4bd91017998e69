// Streaming and batch descriptive statistics.
#pragma once

#include <cstddef>
#include <vector>

namespace richnote {

/// Numerically stable streaming mean / variance (Welford) with min/max.
/// Fold order is part of the contract: two accumulators fed the same
/// values in the same order hold bit-identical moments.
class running_stats {
public:
    void add(double value) noexcept;
    /// Merge another accumulator into this one (parallel-combine friendly).
    void merge(const running_stats& other) noexcept;

    std::size_t count() const noexcept { return count_; }
    double mean() const noexcept { return count_ ? mean_ : 0.0; }
    /// Population variance; 0 for fewer than two samples.
    double variance() const noexcept;
    double stddev() const noexcept;
    /// Unbiased sample variance s² = M2/(n-1); 0 for fewer than two samples.
    double sample_variance() const noexcept;
    double sample_stddev() const noexcept;
    /// Standard error of the mean, s/sqrt(n); 0 for fewer than two samples.
    double standard_error() const noexcept;
    double min() const noexcept { return count_ ? min_ : 0.0; }
    double max() const noexcept { return count_ ? max_ : 0.0; }
    double sum() const noexcept { return sum_; }

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/// Linear-interpolated percentile of a sample; `q` in [0, 1].
/// Sorts a copy; suitable for end-of-run reporting, not hot paths.
double percentile(std::vector<double> values, double q);

double mean(const std::vector<double>& values);
double stddev(const std::vector<double>& values);

/// Pearson correlation of two equal-length samples; 0 if degenerate.
double pearson(const std::vector<double>& x, const std::vector<double>& y);

} // namespace richnote
