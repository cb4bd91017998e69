// Golden regression tests: the fig3 / fig4 / fault-tolerance pipelines are
// replayed at tiny scale with fixed seeds and their canonical %.17g
// serialization is byte-compared against checked-in reference files under
// tests/data/golden/. Any change to workload generation, training,
// scheduling, fault injection or metrics aggregation that shifts a single
// bit of output fails here with a diff-able artifact.
//
// To re-baseline intentionally:  RICHNOTE_UPDATE_GOLDEN=1 ctest -R golden
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "faults/fault_plan.hpp"
#include "golden.hpp"

namespace {

using richnote::core::experiment_params;
using richnote::core::experiment_result;
using richnote::core::experiment_setup;
using richnote::core::run_experiment;
using richnote::core::scheduler_kind;
using richnote::test::compare_or_update;

std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/// One tiny shared setup for every golden (same pattern as the real bench
/// harnesses: one workload + model reused across sweep points).
const experiment_setup& shared_setup() {
    static const experiment_setup* setup = [] {
        experiment_setup::options opts;
        opts.workload.user_count = 15;
        opts.forest.tree_count = 4;
        opts.seed = 11;
        return new experiment_setup(opts);
    }();
    return *setup;
}

experiment_result run_cell(scheduler_kind kind, double budget_mb) {
    experiment_params params;
    params.kind = kind;
    params.fixed_level = 3;
    params.weekly_budget_mb = budget_mb;
    params.seed = 13;
    return run_experiment(shared_setup(), params);
}

TEST(golden_figs, fig3_delivery_recall_precision) {
    std::ostringstream out;
    out << "budget_mb,scheduler,delivery_ratio,delivered_mb,recall,precision\n";
    for (double budget : {1.0, 5.0}) {
        for (auto kind :
             {scheduler_kind::richnote, scheduler_kind::fifo, scheduler_kind::util}) {
            const auto r = run_cell(kind, budget);
            out << fmt(budget) << ',' << r.scheduler_name << ',' << fmt(r.delivery_ratio)
                << ',' << fmt(r.delivered_mb) << ',' << fmt(r.recall) << ','
                << fmt(r.precision) << '\n';
        }
    }
    compare_or_update("fig3_small.csv", out.str());
}

TEST(golden_figs, fig4_utility_energy_delay) {
    std::ostringstream out;
    out << "budget_mb,scheduler,total_utility,utility_clicked,energy_kj,delay_min\n";
    for (double budget : {1.0, 5.0}) {
        for (auto kind :
             {scheduler_kind::richnote, scheduler_kind::fifo, scheduler_kind::util}) {
            const auto r = run_cell(kind, budget);
            out << fmt(budget) << ',' << r.scheduler_name << ',' << fmt(r.total_utility)
                << ',' << fmt(r.utility_clicked) << ',' << fmt(r.energy_kj) << ','
                << fmt(r.mean_delay_min) << '\n';
        }
    }
    compare_or_update("fig4_small.csv", out.str());
}

TEST(golden_figs, fault_tolerance_counters) {
    experiment_params params;
    params.kind = scheduler_kind::richnote;
    params.weekly_budget_mb = 5.0;
    params.seed = 13;
    richnote::faults::fault_plan_params fp;
    fp.seed = 17;
    fp.blackout_prob = 0.05;
    fp.partial_transfer_prob = 0.10;
    fp.duplicate_prob = 0.05;
    fp.reorder_prob = 0.05;
    fp.brownout_prob = 0.03;
    fp.crash_restart_prob = 0.02;
    params.faults = fp;
    params.retry.max_attempts = 8;
    const auto r = run_experiment(shared_setup(), params);

    std::ostringstream out;
    out << "metric,value\n";
    out << "delivery_ratio," << fmt(r.delivery_ratio) << '\n';
    out << "total_utility," << fmt(r.total_utility) << '\n';
    out << "faults_injected," << r.faults.faults_injected << '\n';
    out << "transfer_retries," << r.faults.transfer_retries << '\n';
    out << "dead_lettered," << r.faults.dead_lettered << '\n';
    out << "duplicates_suppressed," << r.faults.duplicates_suppressed << '\n';
    out << "crash_restarts," << r.faults.crash_restarts << '\n';
    out << "partial_bytes," << fmt(r.faults.partial_bytes) << '\n';
    out << "resumed_bytes," << fmt(r.faults.resumed_bytes) << '\n';
    compare_or_update("fault_tolerance_small.csv", out.str());
}

} // namespace
