#include "ml/random_forest.hpp"

#include <atomic>
#include <cmath>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "obs/profile.hpp"

namespace richnote::ml {

void random_forest::fit(const dataset& data, const forest_params& params, std::uint64_t seed) {
    RICHNOTE_PROFILE_SCOPE(richnote::obs::profile_slot::forest_fit);
    RICHNOTE_REQUIRE(params.tree_count > 0, "forest needs at least one tree");
    RICHNOTE_REQUIRE(!data.empty(), "cannot fit a forest on an empty dataset");

    tree_params per_tree = params.tree;
    if (per_tree.features_per_split == 0) {
        per_tree.features_per_split = static_cast<std::size_t>(
            std::ceil(std::sqrt(static_cast<double>(data.feature_count()))));
    }

    trees_.assign(params.tree_count, decision_tree{});

    // Pre-split one child stream per tree, in tree order. This is the exact
    // split() sequence the sequential loop used to draw, so every tree sees
    // the same rng stream no matter how many threads fit the forest — the
    // fitted trees are bit-identical for any fit_threads value.
    richnote::rng gen(seed);
    std::vector<richnote::rng> tree_gens;
    tree_gens.reserve(params.tree_count);
    for (std::size_t t = 0; t < params.tree_count; ++t) tree_gens.push_back(gen.split());

    // Per-tree bootstrap membership, kept so out-of-bag accumulation can run
    // sequentially after all trees are fitted (joins before touching shared
    // state; accumulation order matches the old interleaved loop).
    std::vector<std::vector<std::uint8_t>> in_bag;
    if (params.compute_oob)
        in_bag.assign(params.tree_count, std::vector<std::uint8_t>(data.size(), 0));

    // Trees go out one at a time from a shared counter, so no thread sits
    // idle behind a static chunk while another still holds several trees.
    // Which thread fits tree t does not matter: its rng and its slots are
    // its own.
    std::atomic<std::size_t> next_tree{0};
    const std::size_t threads = richnote::resolve_threads(params.fit_threads, params.tree_count);
    richnote::run_on_threads(threads, [&](std::size_t) {
        std::vector<std::size_t> sample(data.size());
        for (std::size_t t = next_tree++; t < params.tree_count; t = next_tree++) {
            richnote::rng& tree_gen = tree_gens[t];
            for (std::size_t i = 0; i < data.size(); ++i) {
                const std::size_t r = tree_gen.index(data.size());
                sample[i] = r;
                if (params.compute_oob) in_bag[t][r] = 1;
            }
            trees_[t].fit(data, sample, per_tree, tree_gen);
        }
    });

    if (params.compute_oob) {
        // Per row: sum of probabilities from trees that did not see it, and
        // how many such trees there were. Trees accumulate in fit order, the
        // same floating-point order as the old interleaved loop.
        std::vector<double> oob_sum(data.size(), 0.0);
        std::vector<std::uint32_t> oob_votes(data.size(), 0);
        for (std::size_t t = 0; t < params.tree_count; ++t) {
            for (std::size_t r = 0; r < data.size(); ++r) {
                if (in_bag[t][r]) continue;
                oob_sum[r] += trees_[t].predict_proba(data.row(r));
                ++oob_votes[r];
            }
        }
        std::size_t scored = 0;
        std::size_t correct = 0;
        for (std::size_t r = 0; r < data.size(); ++r) {
            if (oob_votes[r] == 0) continue;
            ++scored;
            const int predicted = oob_sum[r] / oob_votes[r] >= 0.5 ? 1 : 0;
            if (predicted == data.label(r)) ++correct;
        }
        if (scored > 0)
            oob_accuracy_ = static_cast<double>(correct) / static_cast<double>(scored);
    }
}

double random_forest::predict_proba(std::span<const double> features) const {
    RICHNOTE_REQUIRE(trained(), "predict on an untrained forest");
    double sum = 0.0;
    for (const decision_tree& tree : trees_) sum += tree.predict_proba(features);
    return sum / static_cast<double>(trees_.size());
}

int random_forest::predict(std::span<const double> features) const {
    return predict_proba(features) >= 0.5 ? 1 : 0;
}

void random_forest::save(std::ostream& out) const {
    RICHNOTE_REQUIRE(trained(), "cannot save an untrained forest");
    out << "richnote_forest v1\n" << "trees " << trees_.size() << '\n';
    for (const decision_tree& tree : trees_) tree.save(out);
    RICHNOTE_REQUIRE(out.good(), "write failure while saving forest");
}

void random_forest::load(std::istream& in) {
    std::string magic, version, tag;
    std::size_t count = 0;
    in >> magic >> version >> tag >> count;
    RICHNOTE_REQUIRE(in.good() && magic == "richnote_forest" && version == "v1" &&
                         tag == "trees" && count > 0,
                     "malformed forest header");
    std::vector<decision_tree> trees(count);
    for (decision_tree& tree : trees) tree.load(in);
    trees_ = std::move(trees);
    oob_accuracy_.reset(); // not persisted
}

void random_forest::save_file(const std::string& path) const {
    std::ofstream out(path);
    RICHNOTE_REQUIRE(out.good(), "cannot open model file for writing: " + path);
    save(out);
}

void random_forest::load_file(const std::string& path) {
    std::ifstream in(path);
    RICHNOTE_REQUIRE(in.good(), "cannot open model file for reading: " + path);
    load(in);
}

} // namespace richnote::ml
