#include "eval/evaluator.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "core/worker_pool.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/progress.hpp"
#include "obs/trace_sink.hpp"

namespace richnote::eval {

const std::vector<std::string>& metric_names() {
    static const std::vector<std::string> names = {
        "total_utility", "precision",  "recall",    "delivery_ratio",
        "delivered_mb",  "metered_mb", "energy_kj", "mean_delay_min",
    };
    return names;
}

std::size_t metric_index(const std::string& name) {
    const auto& names = metric_names();
    const auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) {
        std::string known;
        for (const auto& n : names) {
            if (!known.empty()) known += ", ";
            known += n;
        }
        RICHNOTE_REQUIRE(false, "unknown metric: " + name + " (known: " + known + ")");
    }
    return static_cast<std::size_t>(it - names.begin());
}

confidence_interval eval_result::objective_ci(std::size_t arm) const {
    RICHNOTE_REQUIRE(arm < arms.size(), "arm index out of range");
    return t_interval(arms[arm].metrics[metric_index(objective)], alpha);
}

namespace {

/// Per-replica metric vector in metric_names() order.
std::vector<double> extract_metrics(const core::experiment_result& r) {
    return {r.total_utility, r.precision,  r.recall,    r.delivery_ratio,
            r.delivered_mb,  r.metered_mb, r.energy_kj, r.mean_delay_min};
}

/// Exports the evaluation's running state under richnote.eval.* names.
void export_eval_metrics(const eval_result& result, const eval_params& params,
                         const sequential_stopper& stopper, std::size_t seeds_done,
                         richnote::obs::metrics_registry& registry) {
    registry.gauge_set("richnote.eval.seeds_done", static_cast<double>(seeds_done));
    registry.gauge_set("richnote.eval.seeds_total", static_cast<double>(params.seeds));
    registry.gauge_set("richnote.eval.arms_active",
                       static_cast<double>(stopper.active_count()));
    registry.gauge_set("richnote.eval.replicas_executed",
                       static_cast<double>(result.replicas_executed));
    registry.gauge_set("richnote.eval.replicas_used",
                       static_cast<double>(result.replicas_used));
    const std::size_t obj = metric_index(params.objective);
    for (std::size_t k = 0; k < result.arms.size(); ++k) {
        const arm_result& arm = result.arms[k];
        const std::string prefix = "richnote.eval.arm." + arm.name + ".";
        const running_stats& acc = arm.metrics[obj];
        registry.gauge_set(prefix + "samples", static_cast<double>(acc.count()));
        registry.gauge_set(prefix + "objective_mean", acc.mean());
        if (acc.count() >= 2) {
            const confidence_interval ci = t_interval(acc, params.alpha);
            registry.gauge_set(prefix + "objective_ci_lo", ci.lo);
            registry.gauge_set(prefix + "objective_ci_hi", ci.hi);
        }
        registry.gauge_set(prefix + "active", arm.retired ? 0.0 : 1.0);
    }
}

} // namespace

eval_result run_evaluation(const core::experiment_setup& setup, const eval_params& params) {
    RICHNOTE_REQUIRE(!params.arms.empty(), "evaluation needs at least one arm");
    RICHNOTE_REQUIRE(params.seeds >= 1, "evaluation needs seeds >= 1");
    RICHNOTE_REQUIRE(params.seeds_per_wave >= 1, "seeds_per_wave must be >= 1");
    RICHNOTE_REQUIRE(params.worker_threads >= 1, "worker_threads must be >= 1");
    RICHNOTE_REQUIRE(params.trace == nullptr ||
                         params.trace->user_count() >= params.arms.size(),
                     "trace sink needs one bucket per arm");
    const std::size_t obj = metric_index(params.objective);
    const std::size_t metric_count = metric_names().size();
    const auto started = std::chrono::steady_clock::now();

    eval_result result;
    result.objective = params.objective;
    result.maximize = params.maximize;
    result.alpha = params.alpha;
    result.seeds = params.seeds;
    result.base_seed = params.base_seed;
    result.min_samples = params.min_samples;
    result.arms.resize(params.arms.size());
    for (std::size_t k = 0; k < params.arms.size(); ++k) {
        RICHNOTE_REQUIRE(!params.arms[k].name.empty(), "arm name must not be empty");
        result.arms[k].name = params.arms[k].name;
        result.arms[k].metrics.resize(metric_count);
    }

    {
        std::vector<std::uint64_t> ident;
        ident.reserve(params.seeds + 1);
        ident.push_back(static_cast<std::uint64_t>(params.arms.size()));
        for (std::size_t r = 0; r < params.seeds; ++r)
            ident.push_back(params.base_seed + r);
        result.seed_set_hash = fnv1a64(ident.data(), ident.size());
    }

    sequential_stopper stopper(
        params.arms.size(),
        {params.alpha, params.min_samples, params.maximize});

    // One persistent pool for the whole evaluation; replicas themselves run
    // single-threaded so the fan-out is the only parallelism.
    core::worker_pool pool(params.worker_threads);

    // Local registry backs the progress listener when the caller gave none.
    richnote::obs::metrics_registry local_registry;
    richnote::obs::metrics_registry& registry =
        params.registry != nullptr ? *params.registry : local_registry;

    struct replica_task {
        std::size_t arm = 0;
        std::size_t seed_index = 0;
    };

    std::size_t next_seed = 0;
    while (next_seed < params.seeds) {
        const std::size_t wave =
            std::min(params.seeds_per_wave, params.seeds - next_seed);

        // Tasks for every arm still active at wave start, in (seed, arm)
        // order. Results land in task order, so the fold below never
        // depends on completion order or thread count.
        std::vector<replica_task> tasks;
        tasks.reserve(wave * stopper.active_count());
        for (std::size_t s = next_seed; s < next_seed + wave; ++s) {
            for (std::size_t k = 0; k < params.arms.size(); ++k) {
                if (stopper.active(k)) tasks.push_back({k, s});
            }
        }
        if (tasks.empty()) break; // defensive; at least the leader is active

        std::vector<std::vector<double>> replica_metrics(tasks.size());
        pool.run_tasks(tasks.size(), [&](std::size_t i) {
            core::experiment_params run = params.arms[tasks[i].arm].params;
            run.seed = params.base_seed + tasks[i].seed_index;
            if (run.faults.any()) run.faults.seed += tasks[i].seed_index;
            run.worker_threads = 1;
            run.trace = nullptr;
            run.registry = nullptr;
            run.progress = nullptr;
            run.telemetry_users.clear();
            replica_metrics[i] = extract_metrics(core::run_experiment(setup, run));
        });
        result.replicas_executed += tasks.size();

        // Sequential fold in (seed, arm) order + stopping check per seed —
        // the exact sequence a single-threaded evaluator would produce.
        std::size_t cursor = 0;
        for (std::size_t s = next_seed; s < next_seed + wave; ++s) {
            for (std::size_t k = 0; k < params.arms.size(); ++k) {
                if (cursor >= tasks.size() || tasks[cursor].seed_index != s ||
                    tasks[cursor].arm != k)
                    continue;
                const std::vector<double>& values = replica_metrics[cursor];
                ++cursor;
                if (!stopper.active(k)) continue; // retired earlier this wave: discard
                for (std::size_t m = 0; m < metric_count; ++m)
                    result.arms[k].metrics[m].add(values[m]);
                stopper.observe(k, values[obj]);
                ++result.replicas_used;
            }
            if (!params.early_stopping) continue;
            for (const auto& d : stopper.check()) {
                arm_result& arm = result.arms[d.arm];
                arm.retired = true;
                arm.retired_after = d.samples;
                arm.retired_by = d.leader;
                if (params.trace != nullptr) {
                    params.trace
                        ->event(static_cast<std::uint32_t>(d.arm),
                                static_cast<std::uint64_t>(s + 1), "eval_stop")
                        .field("arm", arm.name)
                        .field("objective", params.objective)
                        .field("samples", static_cast<std::uint64_t>(d.samples))
                        .field("mean", d.arm_mean)
                        .field("ci_lo", d.arm_ci.lo)
                        .field("ci_hi", d.arm_ci.hi)
                        .field("leader", result.arms[d.leader].name)
                        .field("leader_mean", d.leader_mean)
                        .field("leader_ci_lo", d.leader_ci.lo)
                        .field("leader_ci_hi", d.leader_ci.hi)
                        .field("alpha", params.alpha);
                }
                registry.count("richnote.eval.stops_total");
            }
        }
        next_seed += wave;

        export_eval_metrics(result, params, stopper, next_seed, registry);
        if (params.progress != nullptr) {
            richnote::obs::progress_snapshot snap;
            snap.round = next_seed;
            snap.total_rounds = params.seeds;
            snap.users = params.arms.size();
            snap.wall_sec = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - started)
                                .count();
            snap.rounds_per_sec = snap.wall_sec > 0.0
                                      ? static_cast<double>(next_seed) / snap.wall_sec
                                      : 0.0;
            snap.done = next_seed >= params.seeds;
            params.progress->on_round(snap, registry);
        }
    }

    result.leader = stopper.leader();
    for (arm_result& arm : result.arms)
        arm.samples = arm.metrics.empty() ? 0 : arm.metrics.front().count();

    // Final per-arm summary events close the trace: one line per arm with
    // its terminal statistics, in arm order at round seeds+1.
    if (params.trace != nullptr) {
        for (std::size_t k = 0; k < result.arms.size(); ++k) {
            const arm_result& arm = result.arms[k];
            const running_stats& acc = arm.metrics[obj];
            auto event = params.trace->event(static_cast<std::uint32_t>(k),
                                             static_cast<std::uint64_t>(params.seeds + 1),
                                             "eval_arm");
            event.field("arm", arm.name)
                .field("objective", params.objective)
                .field("samples", static_cast<std::uint64_t>(acc.count()))
                .field("mean", acc.mean())
                .field("stddev", acc.sample_stddev())
                .field("retired", arm.retired)
                .field("leader", k == result.leader);
            if (acc.count() >= 2) {
                const confidence_interval ci = t_interval(acc, params.alpha);
                event.field("ci_lo", ci.lo).field("ci_hi", ci.hi);
            }
        }
    }
    return result;
}

} // namespace richnote::eval
