// Utility modeling (§III-A): content utility U_c(i), presentation utility
// U_p(i, j) and their combination U(i, j) = U_c(i) * U_p(i, j) (Eq. 1).
#pragma once

#include <memory>
#include <span>

#include "ml/calibration.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "trace/click_model.hpp"
#include "trace/notification.hpp"

namespace richnote::core {

/// Content utility: "how likely the user would be interested in consuming
/// content i" (§III-A). Implementations must return values in [0, 1], and
/// their const calls must be safe to make from several threads at once
/// (cached_content_utility scores on every core).
class content_utility_model {
public:
    virtual ~content_utility_model() = default;
    virtual double content_utility(const trace::notification& n) const = 0;

    /// Scores many notifications at once into `out` (one slot per note).
    /// The default loops over content_utility(); forest-backed models
    /// override it with batched flat-forest inference. Results are
    /// bit-identical to the one-at-a-time path either way.
    virtual void content_utility_batch(std::span<const trace::notification* const> notes,
                                       std::span<double> out) const;
};

/// Fixed utility — degenerate model for tests and micro-benchmarks.
class constant_content_utility final : public content_utility_model {
public:
    explicit constant_content_utility(double value);
    double content_utility(const trace::notification&) const override { return value_; }

private:
    double value_;
};

/// Ground-truth oracle: the latent click probability of the synthetic
/// world's click model. Upper-bounds what any learned model can achieve;
/// used in ablations.
class oracle_content_utility final : public content_utility_model {
public:
    explicit oracle_content_utility(const trace::click_model& model) : model_(&model) {}

    double content_utility(const trace::notification& n) const override {
        return model_->click_probability(n.recipient, n.features);
    }

private:
    const trace::click_model* model_;
};

/// The paper's learned model (§V-A): a Random Forest over the notification
/// features; U_c(i) = Pr(x_i = 1) if the predicted class is "clicked", else
/// 1 - Pr(x_i = 0). With a binary forest reporting p = P(clicked), both
/// branches reduce to p: for p >= 0.5 the prediction is 1 with confidence
/// p, otherwise the prediction is 0 with confidence 1-p and the formula
/// yields 1 - (1 - p) = p.
class forest_content_utility final : public content_utility_model {
public:
    /// Takes shared ownership: one trained forest serves all users.
    explicit forest_content_utility(std::shared_ptr<const ml::random_forest> forest);

    double content_utility(const trace::notification& n) const override;

    /// Batched flat-forest inference (trees-outer, cache-friendly).
    void content_utility_batch(std::span<const trace::notification* const> notes,
                               std::span<double> out) const override;

    const ml::random_forest& forest() const noexcept { return *forest_; }
    const ml::flat_forest& flat() const noexcept { return flat_; }

private:
    std::shared_ptr<const ml::random_forest> forest_;
    ml::flat_forest flat_; ///< flattened copy of *forest_; serves all scoring
};

/// Builds the §V-A training set from a trace: one row per *attended*
/// notification ("first we filter out notifications without corresponding
/// mouse activity"), label 1 = clicked, 0 = hovered.
ml::dataset make_training_set(const trace::notification_trace& trace);

/// Trains the paper's content-utility forest on a trace and wraps it.
std::shared_ptr<forest_content_utility> train_content_utility(
    const trace::notification_trace& trace, const ml::forest_params& params,
    std::uint64_t seed);

/// Platt-calibrated wrapper: maps the wrapped model's raw score through a
/// fitted sigmoid so U_c behaves like a probability (the semantics §III-A
/// assigns it). Fit the calibrator on held-out attended notifications.
class calibrated_content_utility final : public content_utility_model {
public:
    calibrated_content_utility(std::shared_ptr<const content_utility_model> base,
                               ml::platt_calibrator calibrator);

    double content_utility(const trace::notification& n) const override;

    /// Batched: scores through the base model's batch path, then calibrates
    /// each value in order.
    void content_utility_batch(std::span<const trace::notification* const> notes,
                               std::span<double> out) const override;

    const ml::platt_calibrator& calibrator() const noexcept { return calibrator_; }

private:
    std::shared_ptr<const content_utility_model> base_;
    ml::platt_calibrator calibrator_;
};

/// Precomputed U_c(i) per notification id. Scoring a forest per item per
/// experiment run would repeat identical work across sweep points; this
/// wrapper evaluates the wrapped model once per notification in the trace
/// and serves lookups afterwards.
class cached_content_utility final : public content_utility_model {
public:
    /// Scores every notification of `trace`, whose ids must be exactly
    /// 0..total_count-1 (as the generator numbers them), on `threads`
    /// threads (0 = every hardware thread). Each thread scores a contiguous
    /// id range through model.content_utility_batch, one block at a time,
    /// straight into the table; the table is bit-identical for any thread
    /// count. `model` must be safe to call from several threads at once.
    cached_content_utility(const trace::notification_trace& trace,
                           const content_utility_model& model, std::size_t threads = 0);

    double content_utility(const trace::notification& n) const override;

    std::size_t size() const noexcept { return by_id_.size(); }

private:
    std::vector<double> by_id_;
};

/// Online content-utility learner (extension; see DESIGN.md §5). The
/// paper trains its classifier offline on the whole log; this model starts
/// cold (a constant prior) and is retrained during the run from feedback
/// on DELIVERED notifications only — the signal a live deployment actually
/// has. Retraining happens between rounds (observe()/maybe_retrain() are
/// called from the round driver, never concurrently with scoring).
class online_content_utility final : public content_utility_model {
public:
    struct params {
        double prior = 0.5;               ///< U_c before the first fit
        std::size_t min_rows = 50;        ///< wait for this much feedback
        std::size_t retrain_every = 24;   ///< rounds between refits
        ml::forest_params forest;
        std::uint64_t seed = 1;
    };

    explicit online_content_utility(params p);

    double content_utility(const trace::notification& n) const override;

    /// Feeds one delivered+attended notification's engagement outcome.
    void observe(const trace::notification& n);

    /// Called once per round; refits when due and enough labeled feedback
    /// of both classes has accumulated. Returns true if a refit happened.
    bool on_round_end();

    bool trained() const noexcept { return forest_.trained(); }
    std::size_t observations() const noexcept { return data_.size(); }
    std::size_t refits() const noexcept { return refits_; }

private:
    params params_;
    ml::dataset data_;
    ml::random_forest forest_;
    ml::flat_forest flat_; ///< rebuilt after every refit; serves scoring
    std::size_t rounds_since_fit_ = 0;
    std::size_t rows_at_last_fit_ = 0;
    std::size_t refits_ = 0;
};

/// Eq. 1: U(i, j) = U_c(i) * U_p(i, j).
inline double combined_utility(double content, double presentation) noexcept {
    return content * presentation;
}

} // namespace richnote::core
