#include "core/utility.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace richnote::core {

void content_utility_model::content_utility_batch(
    std::span<const trace::notification* const> notes, std::span<double> out) const {
    RICHNOTE_REQUIRE(out.size() == notes.size(), "one output slot per notification");
    for (std::size_t i = 0; i < notes.size(); ++i)
        out[i] = content_utility(*notes[i]);
}

namespace {

/// Row-major feature matrix for a batch of notifications.
std::vector<double> feature_matrix(std::span<const trace::notification* const> notes) {
    constexpr std::size_t dim = trace::notification_features::dimension;
    std::vector<double> matrix;
    matrix.reserve(notes.size() * dim);
    for (const trace::notification* n : notes) {
        const auto features = n->features.to_array();
        matrix.insert(matrix.end(), features.begin(), features.end());
    }
    return matrix;
}

} // namespace

constant_content_utility::constant_content_utility(double value) : value_(value) {
    RICHNOTE_REQUIRE(value >= 0.0 && value <= 1.0, "content utility must be in [0,1]");
}

forest_content_utility::forest_content_utility(
    std::shared_ptr<const ml::random_forest> forest)
    : forest_(std::move(forest)) {
    RICHNOTE_REQUIRE(forest_ != nullptr && forest_->trained(),
                     "forest_content_utility needs a trained forest");
    flat_ = ml::flat_forest(*forest_);
}

double forest_content_utility::content_utility(const trace::notification& n) const {
    const auto features = n.features.to_array();
    return flat_.predict_proba(features);
}

void forest_content_utility::content_utility_batch(
    std::span<const trace::notification* const> notes, std::span<double> out) const {
    RICHNOTE_REQUIRE(out.size() == notes.size(), "one output slot per notification");
    if (notes.empty()) return;
    const std::vector<double> matrix = feature_matrix(notes);
    flat_.predict_proba(matrix, notes.size(), out);
}

ml::dataset make_training_set(const trace::notification_trace& trace) {
    std::vector<std::string> names(trace::notification_features::names().begin(),
                                   trace::notification_features::names().end());
    ml::dataset data(std::move(names));
    for (const auto& stream : trace.per_user) {
        for (const auto& n : stream) {
            if (!n.attended) continue; // the paper's mouse-activity filter
            const auto features = n.features.to_array();
            data.add_row(features, n.clicked ? 1 : 0);
        }
    }
    return data;
}

std::shared_ptr<forest_content_utility> train_content_utility(
    const trace::notification_trace& trace, const ml::forest_params& params,
    std::uint64_t seed) {
    const ml::dataset data = make_training_set(trace);
    RICHNOTE_REQUIRE(!data.empty(), "trace has no attended notifications to train on");
    auto forest = std::make_shared<ml::random_forest>();
    forest->fit(data, params, seed);
    return std::make_shared<forest_content_utility>(std::move(forest));
}

calibrated_content_utility::calibrated_content_utility(
    std::shared_ptr<const content_utility_model> base, ml::platt_calibrator calibrator)
    : base_(std::move(base)), calibrator_(std::move(calibrator)) {
    RICHNOTE_REQUIRE(base_ != nullptr, "calibrated model needs a base model");
    RICHNOTE_REQUIRE(calibrator_.fitted(), "calibrator must be fitted");
}

double calibrated_content_utility::content_utility(const trace::notification& n) const {
    return calibrator_.calibrate(base_->content_utility(n));
}

void calibrated_content_utility::content_utility_batch(
    std::span<const trace::notification* const> notes, std::span<double> out) const {
    base_->content_utility_batch(notes, out);
    for (double& value : out) value = calibrator_.calibrate(value);
}

online_content_utility::online_content_utility(params p)
    : params_(std::move(p)),
      data_(std::vector<std::string>(trace::notification_features::names().begin(),
                                     trace::notification_features::names().end())) {
    RICHNOTE_REQUIRE(params_.prior >= 0.0 && params_.prior <= 1.0,
                     "prior must be in [0,1]");
    RICHNOTE_REQUIRE(params_.retrain_every >= 1, "retrain_every must be >= 1");
}

double online_content_utility::content_utility(const trace::notification& n) const {
    if (!forest_.trained()) return params_.prior;
    const auto features = n.features.to_array();
    return flat_.predict_proba(features);
}

void online_content_utility::observe(const trace::notification& n) {
    RICHNOTE_REQUIRE(n.attended, "feedback only exists for attended notifications");
    const auto features = n.features.to_array();
    data_.add_row(features, n.clicked ? 1 : 0);
}

bool online_content_utility::on_round_end() {
    ++rounds_since_fit_;
    if (rounds_since_fit_ < params_.retrain_every) return false;
    if (data_.size() < params_.min_rows || data_.size() == rows_at_last_fit_)
        return false;
    const double positives = data_.positive_fraction();
    if (positives == 0.0 || positives == 1.0) return false; // one class only
    forest_.fit(data_, params_.forest,
                params_.seed + refits_); // fresh bootstrap stream per refit
    flat_ = ml::flat_forest(forest_);
    rounds_since_fit_ = 0;
    rows_at_last_fit_ = data_.size();
    ++refits_;
    return true;
}

cached_content_utility::cached_content_utility(const trace::notification_trace& trace,
                                               const content_utility_model& model,
                                               std::size_t threads)
    : by_id_(trace.total_count, 0.0) {
    // Every note at its id's slot, so a block of consecutive ids scores
    // straight into the matching block of by_id_.
    std::vector<const trace::notification*> notes(trace.total_count, nullptr);
    std::size_t placed = 0;
    for (const auto& stream : trace.per_user) {
        for (const auto& n : stream) {
            RICHNOTE_REQUIRE(n.id < notes.size() && notes[n.id] == nullptr,
                             "notification ids must be dense and distinct");
            notes[n.id] = &n;
            ++placed;
        }
    }
    RICHNOTE_REQUIRE(placed == notes.size(), "notification ids must be dense and distinct");
    // Each thread scores one contiguous id range, a block at a time, so a
    // forest model builds one block's feature matrix rather than the whole
    // trace's. Every score depends only on its own note, hence identical
    // for any thread count and block size.
    constexpr std::size_t block_rows = 1024;
    richnote::for_each_chunk(notes.size(), threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; b += block_rows) {
            const std::size_t n = std::min(block_rows, end - b);
            model.content_utility_batch({notes.data() + b, n}, {by_id_.data() + b, n});
        }
    });
}

double cached_content_utility::content_utility(const trace::notification& n) const {
    RICHNOTE_REQUIRE(n.id < by_id_.size(), "notification id outside the cached trace");
    return by_id_[n.id];
}

} // namespace richnote::core
