// Statistical core of the Monte-Carlo evaluation harness (DESIGN.md §12).
//
// Two pieces, deliberately separable from the experiment machinery so the
// estimator and the stopping rule can be property-tested on synthetic
// streams without running a single simulation. Both fold samples into
// common's running_stats (its sample variance and standard error feed the
// confidence intervals):
//
//  * t_quantile         — Student-t inverse CDF, evaluated by bisection on
//                         the regularized incomplete beta function. Cold
//                         path (once per CI), so robustness beats speed.
//  * sequential_stopper — the early-stopping rule: after every completed
//                         seed, an arm whose (1-α) confidence interval lies
//                         strictly below the current leader's is
//                         statistically dominated and retired. A
//                         min-samples floor guards the rule against
//                         degenerate early CIs.
//
// Everything here is a pure function of its inputs — no clocks, no global
// RNG — which is what lets the evaluator promise byte-identical reports
// for any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace richnote::eval {

/// Regularized incomplete beta function I_x(a, b) via the standard
/// Lentz continued-fraction evaluation; |error| < 1e-12 over the domain
/// the t CDF uses. Exposed for tests.
double incomplete_beta(double a, double b, double x);

/// Student-t CDF with `df` degrees of freedom.
double t_cdf(double t, double df);

/// Student-t quantile: the t with CDF(t) = p. `p` in (0, 1), df >= 1.
/// Bisection to ~1e-10 absolute — exact enough that the CI bytes are a
/// stable function of (p, df) across platforms.
double t_quantile(double p, double df);

/// Two-sided t confidence interval around a running mean.
struct confidence_interval {
    double lo = 0.0;
    double hi = 0.0;
    double half_width = 0.0;
};

/// mean ± t_{1-α/2, n-1} · s/√n. For n < 2 the interval is the whole real
/// line in spirit; we return ±infinity half-width so no stopping rule can
/// ever trigger on it.
confidence_interval t_interval(const running_stats& acc, double alpha);

/// Sequential early-stopping rule over K policy arms (MAGPIE-simmer style
/// statistical cutoff). Feed one sample per (arm, seed) in seed order via
/// observe(); after each completed seed call check(): any active arm whose
/// CI upper bound falls strictly below the leader's CI lower bound is
/// dominated at level α and retired. The leader (highest mean, ties to the
/// lowest arm index) is never retired, and nothing is retired before every
/// active arm holds at least `min_samples` samples.
class sequential_stopper {
public:
    struct params {
        double alpha = 0.05;         ///< per-comparison significance level
        std::size_t min_samples = 8; ///< floor before any retirement
        bool maximize = true;        ///< false: lower objective is better
    };

    struct stop_decision {
        std::size_t arm = 0;          ///< retired arm index
        std::size_t leader = 0;       ///< arm that dominated it
        std::size_t samples = 0;      ///< samples the arm held when retired
        confidence_interval arm_ci;   ///< at level alpha
        confidence_interval leader_ci;
        double arm_mean = 0.0;
        double leader_mean = 0.0;
    };

    sequential_stopper(std::size_t arm_count, params p);

    /// Folds one objective sample for `arm`. Throws if the arm is retired
    /// (the evaluator must not feed dead arms).
    void observe(std::size_t arm, double value);

    /// Applies the stopping rule once; returns the decisions made (possibly
    /// several arms retire on the same seed). Stable across calls: arms are
    /// scanned in index order.
    std::vector<stop_decision> check();

    std::size_t arm_count() const noexcept { return arms_.size(); }
    bool active(std::size_t arm) const;
    std::size_t active_count() const noexcept { return active_count_; }
    /// Index of the current leader among active arms.
    std::size_t leader() const;
    const running_stats& accumulator(std::size_t arm) const;
    const params& options() const noexcept { return params_; }

private:
    struct arm_state {
        running_stats acc;
        bool active = true;
    };

    params params_;
    std::vector<arm_state> arms_;
    std::size_t active_count_ = 0;
};

/// FNV-1a 64 over a little-endian byte view of the values — the seed-set
/// hash stamped into evaluation reports and manifests so two reports are
/// comparable only when they averaged the same replicas.
std::uint64_t fnv1a64(const std::uint64_t* values, std::size_t count) noexcept;

/// Lower-case hex string of a 64-bit hash (fixed 16 chars).
std::string hex64(std::uint64_t value);

} // namespace richnote::eval
