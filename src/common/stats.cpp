#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace richnote {

void running_stats::add(double value) noexcept {
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

void running_stats::merge(const running_stats& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double total = static_cast<double>(count_ + other.count_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ +
           delta * delta * static_cast<double>(count_) * static_cast<double>(other.count_) / total;
    mean_ = (mean_ * static_cast<double>(count_) + other.mean_ * static_cast<double>(other.count_)) /
            total;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    count_ += other.count_;
}

double running_stats::variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
}

double running_stats::stddev() const noexcept { return std::sqrt(variance()); }

double running_stats::sample_variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double running_stats::sample_stddev() const noexcept { return std::sqrt(sample_variance()); }

double running_stats::standard_error() const noexcept {
    return count_ > 1 ? sample_stddev() / std::sqrt(static_cast<double>(count_)) : 0.0;
}

double percentile(std::vector<double> values, double q) {
    RICHNOTE_REQUIRE(!values.empty(), "percentile of an empty sample");
    RICHNOTE_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean(const std::vector<double>& values) {
    running_stats s;
    for (double v : values) s.add(v);
    return s.mean();
}

double stddev(const std::vector<double>& values) {
    running_stats s;
    for (double v : values) s.add(v);
    return s.stddev();
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
    RICHNOTE_REQUIRE(x.size() == y.size(), "pearson needs equal-length samples");
    if (x.size() < 2) return 0.0;
    const double mx = mean(x);
    const double my = mean(y);
    double sxy = 0, sxx = 0, syy = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double dx = x[i] - mx;
        const double dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0) return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

} // namespace richnote
