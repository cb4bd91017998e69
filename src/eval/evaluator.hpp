// Multi-seed Monte-Carlo experiment evaluator (DESIGN.md §12).
//
// The figure harnesses report single-seed point estimates; this evaluator
// makes policy comparisons defensible: it runs N seeded replicas of every
// policy arm over one shared experiment_setup, folds the per-replica
// metrics into Welford accumulators, attaches t-based confidence
// intervals, and applies a sequential early-stopping rule so an arm that
// is already statistically dominated stops burning replicas.
//
// Determinism contract (the property the tests pin):
//
//  * Replica (arm a, seed index r) runs run_experiment with
//    params.seed = base_seed + r (and, when a fault plan is armed,
//    faults.seed = fault seed + r) on ONE worker thread — parallelism
//    lives ABOVE the replicas, in waves fanned across the persistent
//    core::worker_pool.
//  * Replicas are executed in waves of `seeds_per_wave` seed indices
//    (a fixed parameter, never derived from the thread count). After each
//    wave the results are folded sequentially in (seed, arm) order and
//    the stopping rule is evaluated after each completed seed index.
//  * An arm retired at seed s discards any already-computed replicas for
//    seeds > s (they were speculative wave work), so the accumulated
//    statistics — and therefore the report bytes — are identical to a
//    fully sequential run, for ANY worker count.
//
// Observability: every stop decision is emitted to an optional
// obs::trace_sink (event type "eval_stop", bucketed by arm index) and the
// running state is exported to an optional obs::metrics_registry under
// richnote.eval.* names; an optional progress_listener receives one
// snapshot per wave, which is how `richnote evaluate expo_port=...` keeps
// /metrics and /progress live.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "eval/stats.hpp"

namespace richnote::obs {
class metrics_registry;
class progress_listener;
class trace_sink;
} // namespace richnote::obs

namespace richnote::eval {

/// One policy arm: a named experiment_params variant. The per-replica seed
/// fields (params.seed, params.faults.seed) are overwritten by the
/// evaluator; everything else is the arm's policy identity.
struct arm_spec {
    std::string name;
    core::experiment_params params;
};

struct eval_params {
    std::vector<arm_spec> arms;

    /// Monte-Carlo replicas per arm; replica r uses env seed base_seed + r.
    std::size_t seeds = 32;
    std::uint64_t base_seed = 1;

    /// Objective metric driving the stopping rule. One of the metric names
    /// reported by metric_names(); default total_utility (Fig. 4a).
    std::string objective = "total_utility";
    /// False for objectives where smaller is better (e.g. energy_kj,
    /// mean_delay_min).
    bool maximize = true;

    double alpha = 0.05;          ///< CI level for report + stopping rule
    std::size_t min_samples = 8;  ///< stopping-rule floor
    bool early_stopping = true;

    /// Replica-level parallelism: waves are fanned across a persistent
    /// worker_pool of this many threads. Output-invariant by construction.
    std::size_t worker_threads = 1;
    /// Seed indices dispatched per wave. Fixed independently of
    /// worker_threads (it bounds speculative work discarded on a stop, not
    /// the output). Must be >= 1.
    std::size_t seeds_per_wave = 4;

    // ----- optional observability (not owned; nullptr = off) -----
    richnote::obs::trace_sink* trace = nullptr;      ///< >= arms.size() buckets
    richnote::obs::metrics_registry* registry = nullptr;
    richnote::obs::progress_listener* progress = nullptr;
};

/// Names of the per-replica metrics the evaluator aggregates, in report
/// order: total_utility, precision, recall, delivery_ratio, delivered_mb,
/// metered_mb, energy_kj, mean_delay_min.
const std::vector<std::string>& metric_names();

/// Index of `name` in metric_names(); throws a named error on an unknown
/// metric (the CLI surfaces this for objective= typos).
std::size_t metric_index(const std::string& name);

struct arm_result {
    std::string name;
    /// Samples folded into the statistics (== seeds unless retired early).
    std::size_t samples = 0;
    bool retired = false;
    /// Seed index AFTER which the arm was retired (samples it held); 0 when
    /// the arm survived to the full seed budget.
    std::size_t retired_after = 0;
    /// Arm that dominated this one (valid when retired).
    std::size_t retired_by = 0;
    /// One accumulator per metric_names() entry, folded in seed order.
    std::vector<running_stats> metrics;
};

struct eval_result {
    std::vector<arm_result> arms; ///< in eval_params::arms order
    std::string objective;
    bool maximize = true;
    double alpha = 0.05;
    std::size_t seeds = 0;            ///< requested seed budget
    std::uint64_t base_seed = 0;
    std::size_t min_samples = 0;
    /// Replicas actually executed, including speculative wave work that a
    /// stop decision discarded. Deterministic (waves are thread-agnostic).
    std::size_t replicas_executed = 0;
    /// Replicas whose results were folded into the statistics.
    std::size_t replicas_used = 0;
    /// FNV-1a over (arm count, seed list): reports with different seed sets
    /// are not comparable, and the hash makes that checkable at a glance.
    std::uint64_t seed_set_hash = 0;
    /// Winner: active arm with the best objective mean.
    std::size_t leader = 0;

    confidence_interval objective_ci(std::size_t arm) const;
};

/// Runs the full evaluation. `setup` is shared across every arm and
/// replica (same workload, same trained model — the paper's "all schedulers
/// over the same trace" discipline); replicas vary only the environment
/// seed (network/battery randomness and, when armed, the fault schedule).
eval_result run_evaluation(const core::experiment_setup& setup, const eval_params& params);

} // namespace richnote::eval
