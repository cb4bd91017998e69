// In-process passes over the benchmark's inputs.
//
//  - replay_run: the program's own run_experiment (optionally recording the
//    wall time of every round through its progress hook).
//  - service_pass: notification_service fed the request stream line by line
//    (parse_wire_line + ingest, or ingest_line when untraced), one slot of
//    lines per run_round, then drained.
//  - broker_pass: the same work done one layer down. It builds the fleet
//    with make_user_broker and calls broker::admit and broker::run_round in
//    the program's order, timing each call; its outcome must be
//    bit-identical to the program's (service summarize() or run_experiment)
//    for the same input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/service.hpp"
#include "spans.hpp"
#include "stream.hpp"

namespace richbench {

/// The §V-C aggregates compared bit-for-bit between program and pass.
struct outcome {
    double delivery_ratio = 0.0;
    double total_utility = 0.0;
    double delivered_mb = 0.0;
    double utility_clicked = 0.0;
    double energy_kj = 0.0;
    double mean_delay_min = 0.0;
    double recall = 0.0;
    double precision = 0.0;
    double final_queue_items = 0.0;
    std::uint64_t rounds = 0;
    std::uint64_t duplicates_suppressed = 0;

    static outcome of(const richnote::core::experiment_result& r);
    bool operator==(const outcome&) const = default;
    std::string describe() const;
};

struct replay_run {
    outcome result;
    double wall_s = 0.0;
    double cpu_s = 0.0; ///< this process's CPU time over the replay (all threads)
    std::uint64_t users = 0;
    std::uint64_t arrivals = 0;
    std::vector<double> round_ms; ///< empty unless rounds were recorded
};

replay_run run_replay(const richnote::core::experiment_setup& setup,
                      const richnote::core::experiment_params& params, bool record_rounds);

struct service_pass_result {
    outcome result;
    double wall_s = 0.0;
    double build_s = 0.0; ///< service construction (the fleet build)
    std::vector<double> round_ms;
    std::vector<double> admitted_per_round;
    std::uint64_t lines = 0;
    std::uint64_t bytes = 0;
    std::uint64_t rejected = 0; ///< ingest calls not accepted
    std::uint64_t pending_peak = 0;
    std::uint64_t pending_end = 0;
};

/// Feeds the first `posts` bodies of `stream` through a fresh service.
/// With an enabled `log`, each parse, ingest and round is a span under a
/// root span named "service_pass" (index 0 of the log).
service_pass_result run_service_pass(const richnote::core::experiment_setup& setup,
                                     const richnote::core::service_params& params,
                                     const request_stream& stream, std::size_t posts,
                                     span_log& log);

struct broker_pass_result {
    outcome result;
    double fleet_build_s = 0.0;
    double fleet_bytes_per_user = 0.0;
    std::uint64_t admits = 0;
    std::uint64_t busy_broker_rounds = 0;
    std::uint64_t idle_broker_rounds = 0;
    std::uint64_t rounds = 0;
    double admit_ns = 0.0;
    double busy_ns = 0.0;
    double idle_ns = 0.0;
    double queue_items_sum = 0.0; ///< queue length at each busy broker's round
    richnote::core::mckp_incremental_scratch::stats mckp;
};

/// Broker-level replica of notification_service over the same stream
/// prefix (always traced into `log`, root "broker_pass").
broker_pass_result run_broker_pass_service(const richnote::core::experiment_setup& setup,
                                           const richnote::core::service_params& params,
                                           const request_stream& stream, std::size_t posts,
                                           span_log& log);

/// Broker-level replica of run_experiment (no faults, uniform cadence,
/// no online learning; root "broker_pass").
broker_pass_result run_broker_pass_replay(const richnote::core::experiment_setup& setup,
                                          const richnote::core::experiment_params& params,
                                          span_log& log);

} // namespace richbench
