// Trace-driven experiment runner (§V-C setup).
//
// Replays a generated workload through per-user brokers on the fixed-period
// round engine (core/round_engine.hpp) and aggregates the §V-C metrics. One
// `experiment_setup` (workload + trained content-utility model) is built
// once and reused across every sweep point of a figure, exactly like the
// paper runs all schedulers over the same trace.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/broker.hpp"
#include "core/telemetry.hpp"
#include "faults/fault_plan.hpp"
#include "core/metrics.hpp"
#include "core/presentation.hpp"
#include "core/scheduler.hpp"
#include "core/utility.hpp"
#include "ml/random_forest.hpp"
#include "trace/generator.hpp"

namespace richnote::obs {
class lifecycle_tracker;
class progress_listener;
}

namespace richnote::core {

class round_engine;

enum class scheduler_kind {
    richnote, ///< Algorithm 2 (Lyapunov + MCKP)
    fifo,     ///< fixed level, delivery-timestamp order
    util,     ///< fixed level, highest utility first
    direct    ///< Eq. 2 solved per round with a hard energy budget (ablation)
};

const char* to_string(scheduler_kind kind) noexcept;

struct experiment_params {
    scheduler_kind kind = scheduler_kind::richnote;
    /// Baselines' fixed presentation level (1 = metadata only, 2 = +5 s,
    /// 3 = +10 s, ... per §V-C). Ignored by RichNote.
    level_t fixed_level = 3;
    double weekly_budget_mb = 20.0; ///< the §V-C "budget per week"
    bool wifi_enabled = false;      ///< Fig. 5(c): add WIFI to the Markov model
    /// Stationary cellular-coverage fraction for the CELL/OFF chain
    /// (ignored when wifi_enabled); 0.5 is the paper's §V-D3 setting.
    double cellular_coverage = 0.5;

    lyapunov_params lyapunov;       ///< V = 1000, kappa = 3 KJ/h (§V-C)
    mckp_options mckp;
    /// RichNote precision knob: decline items with U_c below this (§V-D1).
    double min_content_utility = 0.0;
    /// RichNote aging factor: content-utility half-life in seconds; 0 = off.
    double utility_half_life_sec = 0.0;
    /// RichNote WiFi-deferral threshold on U_c (0 = off) and wait budget.
    double wifi_deferral_min_utility = 0.0;
    double wifi_deferral_max_wait_sec = 6.0 * 3600.0;
    /// Online learning (extension): ignore the setup's offline-trained
    /// model and learn U_c during the run from feedback on delivered
    /// notifications (cold start at online.prior).
    bool online_learning = false;
    online_content_utility::params online;
    /// §II per-topic cadence: friend feeds enter the scheduler every round,
    /// while album-release and playlist-update notifications are admitted
    /// only every k-th round ("friend feeds can be delivered every few
    /// minutes whereas notifications related to artist and playlists can be
    /// delivered in every few hours"). 1 = uniform cadence (paper's §V
    /// setting).
    std::uint32_t batch_topic_round_multiplier = 1;
    richnote::sim::battery_params battery;
    /// §V-C battery input mode: false = closed-loop battery_model; true =
    /// replay a per-user timestamped battery-status trace (the paper's
    /// input, synthesized here), under which download load does NOT feed
    /// back into the recorded levels.
    bool battery_traces = false;
    richnote::sim::energy_budget_policy energy_policy;
    audio_preview_generator::params presentation;
    double rollover_rounds = 168.0;
    /// Mid-flight transfer loss probability (broker retry path); 0 = paper.
    double transfer_failure_prob = 0.0;
    /// Historical all-or-nothing accounting for failed transfers (full byte
    /// size + radio energy burned, nothing resumable); default charges only
    /// the bytes actually moved. Incompatible with a fault plan.
    bool legacy_failure_accounting = false;
    /// Deterministic fault-injection schedule (blackouts, partial
    /// transfers, duplicated/reordered arrivals, brownouts, crash-restart).
    /// All-zero probabilities (the default) = no faults, the paper setting.
    /// An enabled plan turns idle-broker deferral off.
    richnote::faults::fault_plan_params faults;
    /// Per-item retry budget + exponential backoff for transfers that cut
    /// mid-flight. Defaults reproduce pre-fault behaviour (retry forever,
    /// immediately).
    retry_policy retry;
    richnote::sim::sim_time round = richnote::sim::default_round;
    std::uint64_t seed = 42; ///< per-run env randomness (network/battery)
    /// Users whose per-round control state (Q, P, B, battery, network) is
    /// sampled into experiment_result::trajectories (§V-D5 stability
    /// evidence). Empty = telemetry off. Non-empty also turns idle-broker
    /// deferral off (core/round_engine.hpp): every broker runs every round.
    std::vector<std::uint32_t> telemetry_users;
    /// Worker threads for the per-round user loop. Users are independent
    /// (§V-C: "our solution can work in rounds and independently for each
    /// user"), every broker owns its randomness, and metrics are per-user,
    /// so results are bit-identical for ANY thread count. 1 = sequential.
    std::size_t worker_threads = 1;
    /// Optional structured trace sink (obs): per-round, per-decision NDJSON
    /// events from every broker and scheduler. Must be sized for at least
    /// the workload's user count. Not owned; nullptr = tracing off. The
    /// sink buckets per user, so it composes with worker_threads > 1 and
    /// the merged stream stays byte-identical for a fixed seed.
    richnote::obs::trace_sink* trace = nullptr;
    /// Optional service-mode lifecycle tracker (obs/lifecycle.hpp): brokers
    /// and schedulers report per-notification stage transitions (planned /
    /// attempt / delivered / dead-lettered) into it. The ingest-side stages
    /// only exist in service mode, so batch runs normally leave this null.
    /// Not owned; nullptr = off (each hook pays one branch).
    richnote::obs::lifecycle_tracker* lifecycle = nullptr;
    /// Optional metrics registry (obs): the run's aggregates and fault
    /// counters are exported under the canonical richnote.* names after the
    /// replay finishes. Not owned; nullptr = off.
    richnote::obs::metrics_registry* registry = nullptr;
    /// Optional live-progress listener (obs): called after every broker
    /// round with aggregate queue gauges, throughput and fault counters,
    /// plus a registry of the run-so-far metrics — this is how the expo
    /// server's /metrics and /progress stay fresh mid-run. Its snapshot
    /// sums every broker's P(t), so a listener turns idle-broker deferral
    /// off. Not owned; nullptr = off (the round loop pays one branch).
    richnote::obs::progress_listener* progress = nullptr;
};

struct experiment_result {
    std::string scheduler_name;
    double weekly_budget_mb = 0.0;

    double delivery_ratio = 0.0;   ///< Fig. 3(a)
    double delivered_mb = 0.0;     ///< Fig. 3(b)
    double metered_mb = 0.0;
    double recall = 0.0;           ///< Fig. 3(c)
    double precision = 0.0;        ///< Fig. 3(d)
    double total_utility = 0.0;    ///< Fig. 4(a)
    double utility_clicked = 0.0;  ///< Fig. 4(b)
    double avg_utility = 0.0;      ///< per delivered notification
    double energy_kj = 0.0;        ///< Fig. 4(c)
    double mean_delay_min = 0.0;   ///< Fig. 4(d)
    std::vector<double> level_mix; ///< Figs. 5(b)/(c); [0] = undelivered
    std::vector<metrics_recorder::user_category_row> user_categories; ///< Fig. 5(d)

    std::uint64_t rounds_run = 0;
    double final_queue_items = 0.0; ///< mean scheduling-queue length at end

    /// Fault/recovery tallies over the run (all zero without a fault plan).
    fault_counters faults;

    /// Per-round control-state samples for experiment_params::telemetry_users.
    std::shared_ptr<telemetry> trajectories;
};

/// Workload + trained utility model, shared across sweep points.
class experiment_setup {
public:
    struct options {
        trace::workload_params workload;
        /// Set-up runs on forest.fit_threads threads: the forest fit and the
        /// U_c cache's scoring (0, the default here, = every hardware
        /// thread). Both are bit-identical for any count (DESIGN.md §8.2).
        /// An online learner's refits take their own
        /// experiment_params::online.forest.
        ml::forest_params forest = [] {
            ml::forest_params every_core;
            every_core.fit_threads = 0;
            return every_core;
        }();
        /// Training rows are subsampled to this cap (0 = no cap) to keep
        /// forest training time reasonable at large trace scales.
        std::size_t max_training_rows = 20'000;
        /// Use the ground-truth click probability instead of the learned
        /// forest (ablation).
        bool oracle_utility = false;
        /// Load a previously saved forest (ml::random_forest::save_file)
        /// instead of training one; empty = train on the trace.
        std::string model_file;
        /// Platt-calibrate the learned scores on a held-out slice of the
        /// attended notifications before using them as U_c (extension; the
        /// paper uses raw confidences).
        bool calibrate_utility = false;
        std::uint64_t seed = 1;
    };

    explicit experiment_setup(const options& opts);

    const trace::workload& world() const noexcept { return *world_; }
    const content_utility_model& utility() const noexcept { return *cached_; }
    /// The uncached model behind utility(). The cached wrapper is an
    /// id-indexed table over the generated trace and REQUIREs ids in range;
    /// service mode scores wire notifications with arbitrary ids, so it
    /// must evaluate the raw model. Both return bit-identical values for
    /// the same features (the cache is populated by this very model).
    const content_utility_model& raw_model() const noexcept { return *model_; }
    const options& opts() const noexcept { return opts_; }

    /// Default Fig. 5(d) bucket edges scaled to this trace's item counts.
    std::vector<std::uint64_t> default_category_edges() const;

private:
    options opts_;
    std::unique_ptr<trace::workload> world_;
    std::shared_ptr<content_utility_model> model_;
    std::unique_ptr<cached_content_utility> cached_;
};

/// Runs one scheduler over the whole trace and aggregates metrics.
experiment_result run_experiment(const experiment_setup& setup,
                                 const experiment_params& params);

/// The replay behind run_experiment, before aggregation: every round of the
/// trace on a round engine, publishing progress after each. Deferred
/// brokers may lag the returned engine; round_engine::user_broker catches
/// one up.
std::unique_ptr<round_engine> replay_trace(const experiment_setup& setup,
                                           const experiment_params& params);

/// Assembles a run's result: `totals` (metrics.totals(), one fleet walk)
/// supplies every §V-C figure and the fault tallies, `metrics` the
/// per-level and per-bucket views, `brokers` the final queue lengths.
/// run_experiment and notification_service::summarize() both report
/// through it, so batch and service results come from one place.
experiment_result make_experiment_result(const experiment_setup& setup,
                                         const experiment_params& params,
                                         const metrics_recorder& metrics,
                                         const run_totals& totals,
                                         std::span<const broker> brokers,
                                         std::uint64_t rounds_run);

/// theta: the per-round slice of the weekly budget (§V-C "budget per week").
double round_budget_bytes(const experiment_params& params) noexcept;

/// Builds the scheduler configured by `params` (one per user).
std::unique_ptr<scheduler> make_scheduler(const experiment_params& params,
                                          const energy::energy_model& energy);

/// Read-only context for constructing a fleet of per-user brokers. The
/// round engine (core/round_engine.hpp) builds every fleet, batch or
/// service, through make_user_broker, which is what makes elastic
/// resharding lossless: broker `u` is a deterministic function of
/// (params, u), so a fleet can be torn down and reconstructed, then
/// restored from checkpoints, without drift.
struct broker_build_context {
    const experiment_params* params = nullptr;
    const presentation_generator* generator = nullptr;
    const content_utility_model* utility = nullptr;
    const energy::energy_model* energy = nullptr;
    const trace::catalog* catalog = nullptr;
    metrics_recorder* metrics = nullptr;
    const richnote::faults::fault_plan* faults = nullptr; ///< nullptr = inert
    double theta = 0.0; ///< round_budget_bytes(*params)
    /// Synthesis horizon for battery_traces mode (ignored otherwise).
    richnote::sim::sim_time battery_horizon = 0.0;
};

/// Builds user `u`'s broker: the scheduler `params` configures, a per-user
/// seed hashed from (params.seed, u), and that user's network and battery
/// synthesis. `expected_admissions` is only a dedup-set sizing hint and
/// never affects outputs.
broker make_user_broker(const broker_build_context& ctx, trace::user_id u,
                        std::size_t expected_admissions);

} // namespace richnote::core
