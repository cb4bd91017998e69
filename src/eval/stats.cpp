#include "eval/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.hpp"

namespace richnote::eval {

namespace {

/// log Γ via the Lanczos approximation (g = 7, n = 9); |rel err| < 1e-13.
double log_gamma(double x) {
    static const double coeff[] = {0.99999999999980993,  676.5203681218851,
                                   -1259.1392167224028,  771.32342877765313,
                                   -176.61502916214059,  12.507343278686905,
                                   -0.13857109526572012, 9.9843695780195716e-6,
                                   1.5056327351493116e-7};
    if (x < 0.5) {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx).
        return std::log(M_PI / std::sin(M_PI * x)) - log_gamma(1.0 - x);
    }
    x -= 1.0;
    double sum = coeff[0];
    for (int i = 1; i < 9; ++i) sum += coeff[i] / (x + i);
    const double t = x + 7.5;
    return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t + std::log(sum);
}

/// Continued fraction for the incomplete beta (Lentz's method; NR idiom).
double beta_cf(double a, double b, double x) {
    constexpr int max_iter = 300;
    constexpr double eps = 1e-15;
    constexpr double tiny = 1e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < tiny) d = tiny;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= max_iter; ++m) {
        const int m2 = 2 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < tiny) d = tiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < tiny) c = tiny;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < tiny) d = tiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < tiny) c = tiny;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < eps) break;
    }
    return h;
}

} // namespace

double incomplete_beta(double a, double b, double x) {
    RICHNOTE_REQUIRE(a > 0.0 && b > 0.0, "incomplete_beta needs a, b > 0");
    RICHNOTE_REQUIRE(x >= 0.0 && x <= 1.0, "incomplete_beta needs x in [0,1]");
    if (x == 0.0) return 0.0;
    if (x == 1.0) return 1.0;
    const double ln_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                            a * std::log(x) + b * std::log(1.0 - x);
    // Use the continued fraction on the side where it converges fast.
    if (x < (a + 1.0) / (a + b + 2.0)) {
        return std::exp(ln_front) * beta_cf(a, b, x) / a;
    }
    return 1.0 - std::exp(ln_front) * beta_cf(b, a, 1.0 - x) / b;
}

double t_cdf(double t, double df) {
    RICHNOTE_REQUIRE(df >= 1.0, "t_cdf needs df >= 1");
    if (t == 0.0) return 0.5;
    const double x = df / (df + t * t);
    const double tail = 0.5 * incomplete_beta(0.5 * df, 0.5, x);
    return t > 0.0 ? 1.0 - tail : tail;
}

double t_quantile(double p, double df) {
    RICHNOTE_REQUIRE(p > 0.0 && p < 1.0, "t_quantile needs p in (0,1)");
    RICHNOTE_REQUIRE(df >= 1.0, "t_quantile needs df >= 1");
    if (p == 0.5) return 0.0;
    // Symmetric, so solve for the upper half and mirror.
    const bool upper = p > 0.5;
    const double target = upper ? p : 1.0 - p;
    // Bracket: t = 1e6 covers any α ≥ 1e-12 at df = 1 (Cauchy tails).
    double lo = 0.0;
    double hi = 1e6;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (t_cdf(mid, df) < target) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-10 * (1.0 + hi)) break;
    }
    const double t = 0.5 * (lo + hi);
    return upper ? t : -t;
}

confidence_interval t_interval(const running_stats& acc, double alpha) {
    RICHNOTE_REQUIRE(alpha > 0.0 && alpha < 1.0, "t_interval needs alpha in (0,1)");
    confidence_interval ci;
    if (acc.count() < 2) {
        ci.lo = -std::numeric_limits<double>::infinity();
        ci.hi = std::numeric_limits<double>::infinity();
        ci.half_width = std::numeric_limits<double>::infinity();
        return ci;
    }
    const double df = static_cast<double>(acc.count() - 1);
    const double t = t_quantile(1.0 - 0.5 * alpha, df);
    ci.half_width = t * acc.standard_error();
    ci.lo = acc.mean() - ci.half_width;
    ci.hi = acc.mean() + ci.half_width;
    return ci;
}

sequential_stopper::sequential_stopper(std::size_t arm_count, params p)
    : params_(p), arms_(arm_count), active_count_(arm_count) {
    RICHNOTE_REQUIRE(arm_count >= 1, "sequential_stopper needs at least one arm");
    RICHNOTE_REQUIRE(p.alpha > 0.0 && p.alpha < 1.0, "alpha must be in (0,1)");
    RICHNOTE_REQUIRE(p.min_samples >= 2, "min_samples must be >= 2 (a CI needs variance)");
}

void sequential_stopper::observe(std::size_t arm, double value) {
    RICHNOTE_REQUIRE(arm < arms_.size(), "arm index out of range");
    RICHNOTE_REQUIRE(arms_[arm].active, "observe() on a retired arm");
    arms_[arm].acc.add(value);
}

bool sequential_stopper::active(std::size_t arm) const {
    RICHNOTE_REQUIRE(arm < arms_.size(), "arm index out of range");
    return arms_[arm].active;
}

const running_stats& sequential_stopper::accumulator(std::size_t arm) const {
    RICHNOTE_REQUIRE(arm < arms_.size(), "arm index out of range");
    return arms_[arm].acc;
}

std::size_t sequential_stopper::leader() const {
    std::size_t best = arms_.size();
    for (std::size_t k = 0; k < arms_.size(); ++k) {
        if (!arms_[k].active) continue;
        if (best == arms_.size()) {
            best = k;
            continue;
        }
        const double a = arms_[k].acc.mean();
        const double b = arms_[best].acc.mean();
        if (params_.maximize ? a > b : a < b) best = k;
    }
    RICHNOTE_CHECK(best < arms_.size(), "no active arm");
    return best;
}

std::vector<sequential_stopper::stop_decision> sequential_stopper::check() {
    std::vector<stop_decision> decisions;
    if (active_count_ < 2) return decisions;
    for (std::size_t k = 0; k < arms_.size(); ++k) {
        if (arms_[k].active && arms_[k].acc.count() < params_.min_samples) return decisions;
    }
    const std::size_t lead = leader();
    const confidence_interval lead_ci = t_interval(arms_[lead].acc, params_.alpha);
    for (std::size_t k = 0; k < arms_.size(); ++k) {
        if (k == lead || !arms_[k].active) continue;
        const confidence_interval ci = t_interval(arms_[k].acc, params_.alpha);
        // Dominated: the arm's best plausible value is strictly worse than
        // the leader's worst plausible value.
        const bool dominated = params_.maximize ? ci.hi < lead_ci.lo : ci.lo > lead_ci.hi;
        if (!dominated) continue;
        arms_[k].active = false;
        --active_count_;
        stop_decision d;
        d.arm = k;
        d.leader = lead;
        d.samples = arms_[k].acc.count();
        d.arm_ci = ci;
        d.leader_ci = lead_ci;
        d.arm_mean = arms_[k].acc.mean();
        d.leader_mean = arms_[lead].acc.mean();
        decisions.push_back(d);
    }
    return decisions;
}

std::uint64_t fnv1a64(const std::uint64_t* values, std::size_t count) noexcept {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t v = values[i];
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= v & 0xffULL;
            hash *= 0x100000001b3ULL;
            v >>= 8;
        }
    }
    return hash;
}

std::string hex64(std::uint64_t value) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
    return std::string(buf, 16);
}

} // namespace richnote::eval
