// End-to-end determinism of the structured trace (DESIGN.md §9): for a
// fixed seed the merged NDJSON stream must be byte-identical across worker
// thread counts and across repeated runs — the property that makes traces
// diffable artifacts rather than logs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "golden.hpp"
#include "obs/trace_sink.hpp"

namespace {

using richnote::core::experiment_params;
using richnote::core::experiment_setup;
using richnote::core::run_experiment;
using richnote::obs::trace_sink;

const experiment_setup& shared_setup() {
    static const experiment_setup* setup = [] {
        experiment_setup::options opts;
        opts.workload.user_count = 12;
        opts.forest.tree_count = 4;
        opts.seed = 5;
        return new experiment_setup(opts);
    }();
    return *setup;
}

std::string traced_run(std::size_t worker_threads, double fault_intensity,
                       bool reorder = false) {
    trace_sink sink(12);
    experiment_params params;
    params.weekly_budget_mb = 3.0;
    params.seed = 9;
    params.worker_threads = worker_threads;
    params.trace = &sink;
    if (fault_intensity > 0.0) {
        richnote::faults::fault_plan_params fp;
        fp.seed = 21;
        fp.blackout_prob = 0.05 * fault_intensity;
        fp.partial_transfer_prob = 0.10 * fault_intensity;
        fp.duplicate_prob = 0.05 * fault_intensity;
        fp.crash_restart_prob = 0.02 * fault_intensity;
        if (reorder) fp.reorder_prob = 0.3 * fault_intensity;
        params.faults = fp;
        params.retry.max_attempts = 4;
        params.retry.backoff_base_sec = 60.0;
    }
    const auto result = run_experiment(shared_setup(), params);
    EXPECT_GT(result.rounds_run, 0u);
    std::ostringstream out;
    sink.write_ndjson(out);
    return out.str();
}

TEST(trace_determinism, stream_is_byte_identical_across_thread_counts) {
    const std::string sequential = traced_run(1, 0.0);
    const std::string sharded = traced_run(3, 0.0);
    ASSERT_FALSE(sequential.empty());
    EXPECT_EQ(sequential, sharded);
}

TEST(trace_determinism, repeated_runs_at_same_seed_are_byte_identical) {
    EXPECT_EQ(traced_run(1, 0.0), traced_run(1, 0.0));
}

TEST(trace_determinism, fault_events_are_deterministic_across_threads_too) {
    const std::string sequential = traced_run(1, 1.0);
    const std::string sharded = traced_run(4, 1.0);
    ASSERT_FALSE(sequential.empty());
    // The fault run must actually contain fault-path event types.
    EXPECT_NE(sequential.find("\"type\":\"fault\""), std::string::npos);
    EXPECT_EQ(sequential, sharded);
}

TEST(trace_determinism, faulted_sharded_stream_matches_the_golden_digest) {
    // Pins the bytes across commits, not just across runs of one binary: a
    // fault plan plus two worker threads covers the reorder, duplicate,
    // blackout, crash-restart and partial-transfer events.
    richnote::test::compare_or_update("trace_batch_faults_t2.digest",
                                      richnote::test::digest_of(traced_run(2, 1.0, true)));
}

TEST(trace_determinism, stream_contains_the_documented_event_vocabulary) {
    const std::string stream = traced_run(1, 0.0);
    for (const char* type : {"plan", "decision", "deliver", "round"}) {
        EXPECT_NE(stream.find("\"type\":\"" + std::string(type) + "\""),
                  std::string::npos)
            << "missing event type " << type;
    }
    // Every line is one JSON object: quick structural check.
    std::istringstream lines(stream);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"type\":"), std::string::npos);
        EXPECT_NE(line.find("\"user\":"), std::string::npos);
        EXPECT_NE(line.find("\"round\":"), std::string::npos);
    }
}

} // namespace
