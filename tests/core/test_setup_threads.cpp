// Set-up runs on every core, bit for bit (DESIGN.md §8.2).
//
// experiment_setup fits its forest and scores its U_c cache on
// forest.fit_threads threads, and round_engine builds its fleet on its
// worker pool. None of it may depend on the thread count: the saved forest
// bytes, every cached U_c score, every broker as built, and the outcome of
// run_experiment must be identical at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/round_engine.hpp"
#include "core/utility.hpp"
#include "fleet_compare.hpp"

namespace {

using richnote::core::cached_content_utility;
using richnote::core::experiment_params;
using richnote::core::experiment_result;
using richnote::core::experiment_setup;
using richnote::core::forest_content_utility;
using richnote::core::round_engine;
using richnote::core::scheduler_kind;

constexpr std::array<std::size_t, 3> thread_counts = {1, 2, 8};

class setup_threads : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        for (std::size_t i = 0; i < thread_counts.size(); ++i) {
            experiment_setup::options opts;
            opts.workload.user_count = 40;
            opts.workload.catalog.artist_count = 80;
            opts.workload.playlist_count = 15;
            opts.forest.tree_count = 11; // uneven over 2 and 8 threads
            opts.forest.fit_threads = thread_counts[i];
            opts.seed = 29;
            setups_[i] = std::make_unique<experiment_setup>(opts);
        }
    }
    static void TearDownTestSuite() {
        for (auto& setup : setups_) setup.reset();
    }

    static const experiment_setup& setup(std::size_t i) { return *setups_[i]; }

    static std::string forest_bytes(const experiment_setup& s) {
        const auto& model = dynamic_cast<const forest_content_utility&>(s.raw_model());
        std::ostringstream out;
        model.forest().save(out);
        return out.str();
    }

    static experiment_params params(scheduler_kind kind, std::size_t threads) {
        experiment_params p;
        p.kind = kind;
        p.fixed_level = 3;
        p.weekly_budget_mb = 6.0;
        p.seed = 31;
        p.worker_threads = threads;
        return p;
    }

    static std::unique_ptr<round_engine> engine(const experiment_setup& s,
                                                std::size_t threads) {
        const auto& world = s.world();
        return std::make_unique<round_engine>(
            s, params(scheduler_kind::richnote, threads), world.user_count(), threads,
            s.utility(),
            [&world](richnote::trace::user_id u) {
                return world.notifications().per_user[u].size();
            });
    }

    static void expect_same_result(const experiment_result& a, const experiment_result& b) {
        EXPECT_EQ(a.scheduler_name, b.scheduler_name);
        EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
        EXPECT_EQ(a.delivered_mb, b.delivered_mb);
        EXPECT_EQ(a.metered_mb, b.metered_mb);
        EXPECT_EQ(a.recall, b.recall);
        EXPECT_EQ(a.precision, b.precision);
        EXPECT_EQ(a.total_utility, b.total_utility);
        EXPECT_EQ(a.utility_clicked, b.utility_clicked);
        EXPECT_EQ(a.energy_kj, b.energy_kj);
        EXPECT_EQ(a.mean_delay_min, b.mean_delay_min);
        EXPECT_EQ(a.level_mix, b.level_mix);
        EXPECT_EQ(a.rounds_run, b.rounds_run);
        EXPECT_EQ(a.final_queue_items, b.final_queue_items);
        ASSERT_EQ(a.user_categories.size(), b.user_categories.size());
        for (std::size_t c = 0; c < a.user_categories.size(); ++c) {
            EXPECT_EQ(a.user_categories[c].users, b.user_categories[c].users);
            EXPECT_EQ(a.user_categories[c].mean_utility, b.user_categories[c].mean_utility);
        }
    }

    static std::array<std::unique_ptr<experiment_setup>, thread_counts.size()> setups_;
};

std::array<std::unique_ptr<experiment_setup>, thread_counts.size()> setup_threads::setups_;

TEST_F(setup_threads, saved_forest_bytes_match) {
    const std::string reference = forest_bytes(setup(0));
    ASSERT_FALSE(reference.empty());
    for (std::size_t i = 1; i < thread_counts.size(); ++i)
        EXPECT_EQ(forest_bytes(setup(i)), reference) << thread_counts[i] << " fit threads";
}

TEST_F(setup_threads, every_cached_score_matches) {
    const auto& notes = setup(0).world().notifications();
    ASSERT_GT(notes.total_count, 0u);
    for (std::size_t i = 1; i < thread_counts.size(); ++i) {
        for (const auto& stream : notes.per_user)
            for (const auto& n : stream)
                ASSERT_EQ(setup(i).utility().content_utility(n),
                          setup(0).utility().content_utility(n))
                    << "note " << n.id << ", " << thread_counts[i] << " set-up threads";
    }
}

TEST_F(setup_threads, cache_equals_the_model_it_wraps_for_any_thread_count) {
    // ~2.8k notes: one thread scores three blocks of its range, three
    // threads one block each; 8 exceeds the hardware threads and 0 means
    // all of them. The table is the same every time.
    const auto& notes = setup(0).world().notifications();
    ASSERT_GT(notes.total_count, 2048u);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                      std::size_t{0}}) {
        const cached_content_utility cache(notes, setup(0).raw_model(), threads);
        ASSERT_EQ(cache.size(), notes.total_count);
        for (const auto& stream : notes.per_user)
            for (const auto& n : stream)
                ASSERT_EQ(cache.content_utility(n), setup(0).raw_model().content_utility(n))
                    << "note " << n.id << ", threads=" << threads;
    }
}

TEST_F(setup_threads, cache_refuses_ids_that_are_not_dense) {
    auto notes = setup(0).world().notifications();
    notes.per_user.front().front().id = notes.per_user.back().back().id; // a duplicate
    EXPECT_THROW(cached_content_utility(notes, setup(0).raw_model(), 2),
                 richnote::precondition_error);
}

TEST_F(setup_threads, every_broker_as_built_matches) {
    const auto reference = engine(setup(0), 1);
    for (std::size_t i = 1; i < thread_counts.size(); ++i) {
        const auto built = engine(setup(i), thread_counts[i]);
        ASSERT_EQ(built->worker_threads(), thread_counts[i]);
        ASSERT_EQ(built->brokers().size(), reference->brokers().size());
        for (std::size_t u = 0; u < reference->brokers().size(); ++u)
            richnote::test::expect_same_broker(built->brokers()[u], reference->brokers()[u]);
    }
}

TEST_F(setup_threads, reshard_rebuilds_every_broker_on_the_new_pool) {
    const auto reference = engine(setup(0), 1);
    const auto resharded = engine(setup(0), 1);
    resharded->reshard(8);
    ASSERT_EQ(resharded->worker_threads(), 8u);
    for (std::size_t u = 0; u < reference->brokers().size(); ++u)
        richnote::test::expect_same_broker(resharded->brokers()[u], reference->brokers()[u]);
}

TEST_F(setup_threads, a_broker_that_fails_to_build_fails_the_engine_by_name) {
    // make_user_broker refuses legacy accounting under a fault plan; the
    // slot that hits it must hand the error to the caller, not terminate.
    auto p = params(scheduler_kind::richnote, 8);
    p.legacy_failure_accounting = true;
    p.faults.blackout_prob = 0.5;
    const auto& world = setup(0).world();
    EXPECT_THROW(round_engine(setup(0), p, world.user_count(), 8, setup(0).utility(),
                              [](richnote::trace::user_id) { return std::size_t{0}; }),
                 richnote::precondition_error);
}

TEST_F(setup_threads, richnote_outcome_matches) {
    const experiment_result reference =
        run_experiment(setup(0), params(scheduler_kind::richnote, 1));
    for (std::size_t i = 1; i < thread_counts.size(); ++i)
        expect_same_result(
            run_experiment(setup(i), params(scheduler_kind::richnote, thread_counts[i])),
            reference);
}

TEST_F(setup_threads, util_l3_outcome_matches) {
    const experiment_result reference =
        run_experiment(setup(0), params(scheduler_kind::util, 1));
    EXPECT_EQ(reference.scheduler_name, "UTIL(L3)");
    for (std::size_t i = 1; i < thread_counts.size(); ++i)
        expect_same_result(
            run_experiment(setup(i), params(scheduler_kind::util, thread_counts[i])),
            reference);
}

} // namespace
