// Integration tests for the Monte-Carlo evaluator (DESIGN.md §12): the
// parallel wave evaluator must reproduce, byte for byte, what a
// single-threaded scalar fold over the same replicas produces — for any
// worker count, with and without early stopping — and the scenario packs
// and report writers must hold their documented contracts.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "eval/evaluator.hpp"
#include "eval/report.hpp"
#include "eval/scenario.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_sink.hpp"

namespace {

using richnote::core::experiment_params;
using richnote::core::experiment_setup;
using richnote::core::run_experiment;
using richnote::eval::arm_spec;
using richnote::eval::eval_params;
using richnote::eval::eval_result;
using richnote::eval::make_scenario;
using richnote::eval::metric_index;
using richnote::eval::metric_names;
using richnote::eval::run_evaluation;
using richnote::eval::scenario_names;
using richnote::eval::scenario_pack;
using richnote::eval::scenario_request;
using richnote::running_stats;
using richnote::eval::write_eval_csv;
using richnote::eval::write_eval_json;

scenario_request small_request() {
    scenario_request req;
    req.users = 12;
    req.setup_seed = 5;
    req.trees = 4;
    req.budget_mb = 3.0;
    return req;
}

/// One shared small world per scenario pack; building the workload + forest
/// dominates test time, the replicas themselves are cheap.
const experiment_setup& shared_setup(const std::string& scenario) {
    // Leaked on purpose (map included) so LeakSanitizer sees the setups as
    // reachable at exit — the same idiom as test_trace_determinism.
    static auto* cache = new std::map<std::string, const experiment_setup*>();
    auto it = cache->find(scenario);
    if (it == cache->end()) {
        const scenario_pack pack = make_scenario(scenario, small_request());
        it = cache->emplace(scenario, new experiment_setup(pack.setup)).first;
    }
    return *it->second;
}

eval_params small_params(const scenario_pack& pack, std::size_t seeds,
                         std::size_t threads) {
    eval_params ep;
    ep.arms = pack.arms;
    ep.seeds = seeds;
    ep.base_seed = 100;
    ep.alpha = 0.05;
    ep.min_samples = 4;
    ep.worker_threads = threads;
    ep.seeds_per_wave = 3;
    return ep;
}

/// Scalar reference: run every (seed, arm) replica sequentially and fold —
/// no pool, no waves, no stopping. What the evaluator must agree with.
std::vector<std::vector<running_stats>> scalar_reference(const experiment_setup& setup,
                                                   const eval_params& ep) {
    std::vector<std::vector<running_stats>> acc(ep.arms.size());
    for (auto& a : acc) a.resize(metric_names().size());
    for (std::size_t s = 0; s < ep.seeds; ++s) {
        for (std::size_t k = 0; k < ep.arms.size(); ++k) {
            experiment_params run = ep.arms[k].params;
            run.seed = ep.base_seed + s;
            if (run.faults.any()) run.faults.seed += s;
            run.worker_threads = 1;
            const auto r = run_experiment(setup, run);
            const double values[] = {r.total_utility, r.precision,   r.recall,
                                     r.delivery_ratio, r.delivered_mb, r.metered_mb,
                                     r.energy_kj,      r.mean_delay_min};
            for (std::size_t m = 0; m < metric_names().size(); ++m)
                acc[k][m].add(values[m]);
        }
    }
    return acc;
}

TEST(evaluator, matches_single_threaded_scalar_reference) {
    const scenario_pack pack = make_scenario("baseline", small_request());
    eval_params ep = small_params(pack, 6, 4);
    ep.early_stopping = false; // reference folds every replica
    const eval_result result = run_evaluation(shared_setup("baseline"), ep);
    const auto reference = scalar_reference(shared_setup("baseline"), ep);

    ASSERT_EQ(result.arms.size(), reference.size());
    EXPECT_EQ(result.replicas_executed, ep.seeds * ep.arms.size());
    EXPECT_EQ(result.replicas_used, ep.seeds * ep.arms.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
        for (std::size_t m = 0; m < metric_names().size(); ++m) {
            const running_stats& got = result.arms[k].metrics[m];
            const running_stats& want = reference[k][m];
            ASSERT_EQ(got.count(), want.count());
            // Bit-identical, not merely close: same samples, same fold order.
            EXPECT_EQ(got.mean(), want.mean())
                << pack.arms[k].name << " " << metric_names()[m];
            EXPECT_EQ(got.sample_variance(), want.sample_variance())
                << pack.arms[k].name << " " << metric_names()[m];
            EXPECT_EQ(got.min(), want.min());
            EXPECT_EQ(got.max(), want.max());
        }
    }
}

std::string json_report(const std::string& scenario, std::size_t seeds,
                        std::size_t threads, bool early_stopping) {
    const scenario_pack pack = make_scenario(scenario, small_request());
    eval_params ep = small_params(pack, seeds, threads);
    ep.early_stopping = early_stopping;
    const eval_result result = run_evaluation(shared_setup(scenario), ep);
    std::ostringstream out;
    write_eval_json(result, {scenario}, out);
    return out.str();
}

TEST(evaluator, json_report_is_byte_identical_across_worker_counts) {
    const std::string one = json_report("baseline", 8, 1, true);
    const std::string two = json_report("baseline", 8, 2, true);
    const std::string eight = json_report("baseline", 8, 8, true);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
}

TEST(evaluator, json_report_is_byte_identical_across_reruns) {
    EXPECT_EQ(json_report("baseline", 6, 3, true), json_report("baseline", 6, 3, true));
}

TEST(evaluator, fault_scenario_is_deterministic_across_worker_counts_too) {
    const std::string one = json_report("regional_outage", 6, 1, true);
    const std::string four = json_report("regional_outage", 6, 4, true);
    ASSERT_NE(one.find("regional_outage"), std::string::npos);
    EXPECT_EQ(one, four);
}

TEST(evaluator, early_stopping_retires_a_dominated_arm_before_the_budget) {
    const scenario_pack pack = make_scenario("baseline", small_request());
    eval_params ep = small_params(pack, 24, 4);
    const eval_result result = run_evaluation(shared_setup("baseline"), ep);

    std::size_t retired = 0;
    for (std::size_t k = 0; k < result.arms.size(); ++k) {
        const auto& arm = result.arms[k];
        if (!arm.retired) continue;
        ++retired;
        EXPECT_GE(arm.retired_after, ep.min_samples);
        EXPECT_LT(arm.retired_after, ep.seeds);
        EXPECT_EQ(arm.samples, arm.metrics[0].count());
        EXPECT_LT(arm.samples, ep.seeds);
        EXPECT_NE(arm.retired_by, k);
    }
    ASSERT_GE(retired, 1u) << "no arm was dominated in 24 seeds";
    // The stop must actually have saved replicas.
    EXPECT_LT(result.replicas_used, ep.seeds * ep.arms.size());
    EXPECT_FALSE(result.arms[result.leader].retired);
}

TEST(evaluator, stop_decisions_reach_trace_and_metrics_registry) {
    const scenario_pack pack = make_scenario("baseline", small_request());
    eval_params ep = small_params(pack, 24, 2);
    richnote::obs::trace_sink sink(ep.arms.size());
    richnote::obs::metrics_registry registry;
    ep.trace = &sink;
    ep.registry = &registry;
    const eval_result result = run_evaluation(shared_setup("baseline"), ep);

    std::ostringstream trace;
    sink.write_ndjson(trace);
    const std::string stream = trace.str();
    EXPECT_NE(stream.find("\"type\":\"eval_stop\""), std::string::npos);
    EXPECT_NE(stream.find("\"type\":\"eval_arm\""), std::string::npos);
    EXPECT_NE(stream.find("\"leader\":"), std::string::npos);

    std::size_t retired = 0;
    for (const auto& arm : result.arms) retired += arm.retired ? 1 : 0;
    ASSERT_GE(retired, 1u);
    EXPECT_EQ(registry.counter("richnote.eval.stops_total"),
              static_cast<std::uint64_t>(retired));
    EXPECT_EQ(registry.gauge("richnote.eval.seeds_total"),
              static_cast<double>(ep.seeds));
    EXPECT_EQ(registry.gauge("richnote.eval.arms_active"),
              static_cast<double>(ep.arms.size() - retired));
    for (const auto& arm : result.arms) {
        EXPECT_EQ(registry.gauge("richnote.eval.arm." + arm.name + ".active"),
                  arm.retired ? 0.0 : 1.0);
    }
}

TEST(evaluator, seed_set_hash_depends_on_seed_set_and_arm_count) {
    const scenario_pack pack = make_scenario("baseline", small_request());
    eval_params ep = small_params(pack, 4, 1);
    ep.early_stopping = false;
    const auto a = run_evaluation(shared_setup("baseline"), ep);
    ep.base_seed = 101;
    const auto b = run_evaluation(shared_setup("baseline"), ep);
    EXPECT_NE(a.seed_set_hash, b.seed_set_hash);
    ep.base_seed = 100;
    const auto c = run_evaluation(shared_setup("baseline"), ep);
    EXPECT_EQ(a.seed_set_hash, c.seed_set_hash);
}

TEST(evaluator, rejects_bad_parameters) {
    const scenario_pack pack = make_scenario("baseline", small_request());
    eval_params ep = small_params(pack, 4, 1);
    ep.seeds = 0;
    EXPECT_THROW(run_evaluation(shared_setup("baseline"), ep),
                 richnote::precondition_error);
    ep = small_params(pack, 4, 1);
    ep.arms.clear();
    EXPECT_THROW(run_evaluation(shared_setup("baseline"), ep),
                 richnote::precondition_error);
    EXPECT_THROW(metric_index("not_a_metric"), richnote::precondition_error);
}

// ---------------------------------------------------------------------------
// Scenario packs.

TEST(scenarios, every_named_pack_resolves_with_arms) {
    ASSERT_EQ(scenario_names().size(), 5u);
    for (const auto& name : scenario_names()) {
        const scenario_pack pack = make_scenario(name, small_request());
        EXPECT_EQ(pack.name, name);
        EXPECT_FALSE(pack.description.empty());
        ASSERT_GE(pack.arms.size(), 2u) << name;
        for (const auto& arm : pack.arms) EXPECT_FALSE(arm.name.empty());
    }
}

TEST(scenarios, unknown_name_is_a_named_error) {
    EXPECT_THROW(make_scenario("warp_core_breach", small_request()),
                 richnote::precondition_error);
}

TEST(scenarios, packs_carry_their_distinguishing_knobs) {
    const scenario_request req = small_request();
    const scenario_pack battery = make_scenario("battery_trace", req);
    for (const auto& arm : battery.arms) EXPECT_TRUE(arm.params.battery_traces) << arm.name;
    const scenario_pack outage = make_scenario("regional_outage", req);
    bool has_faults = false;
    for (const auto& arm : outage.arms) has_faults |= arm.params.faults.any();
    EXPECT_TRUE(has_faults);
    const scenario_pack cold = make_scenario("cold_start", req);
    bool has_online = false;
    for (const auto& arm : cold.arms) has_online |= arm.params.online_learning;
    EXPECT_TRUE(has_online);
}

// ---------------------------------------------------------------------------
// Report writers.

TEST(reports, json_schema_and_csv_header_are_stable) {
    const scenario_pack pack = make_scenario("baseline", small_request());
    eval_params ep = small_params(pack, 4, 2);
    ep.early_stopping = false;
    const eval_result result = run_evaluation(shared_setup("baseline"), ep);

    std::ostringstream json;
    write_eval_json(result, {"baseline"}, json);
    const std::string doc = json.str();
    EXPECT_NE(doc.find("\"schema\": \"richnote-eval-v1\""), std::string::npos);
    EXPECT_NE(doc.find("\"scenario\": \"baseline\""), std::string::npos);
    EXPECT_NE(doc.find("\"seed_set_hash\": "), std::string::npos);
    for (const auto& metric : metric_names())
        EXPECT_NE(doc.find("\"" + metric + "\""), std::string::npos);

    std::ostringstream csv;
    write_eval_csv(result, {"baseline"}, csv);
    const std::string flat = csv.str();
    EXPECT_EQ(flat.rfind("scenario,arm,metric,samples,mean,stddev,ci_lo,ci_hi,min,max\n",
                         0),
              0u);
    std::size_t rows = 0;
    for (char c : flat) rows += c == '\n' ? 1 : 0;
    EXPECT_EQ(rows, 1 + result.arms.size() * metric_names().size());
}

TEST(reports, single_sample_confidence_interval_is_null_in_json) {
    const scenario_pack pack = make_scenario("baseline", small_request());
    eval_params ep = small_params(pack, 1, 1);
    ep.early_stopping = false;
    const eval_result result = run_evaluation(shared_setup("baseline"), ep);
    std::ostringstream json;
    write_eval_json(result, {"baseline"}, json);
    EXPECT_NE(json.str().find("\"ci_lo\":null"), std::string::npos);
}

} // namespace
