// Shared plumbing for the figure-reproduction harnesses in bench/.
//
// Every harness accepts `key=value` arguments (users=..., seed=...,
// trees=..., threads=..., csv=out.csv) so the paper-scale experiment (10k
// users) can be
// approached on bigger machines while the default stays laptop-sized. One
// experiment_setup (workload + trained forest) is shared across all sweep
// points of a figure, like the paper replays one trace for every method.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "obs/expo_server.hpp"
#include "obs/run_manifest.hpp"

namespace richnote::bench {

/// FNV-1a 64 folding `bytes` into `hash` (start from fnv1a_offset). The set-up
/// harnesses checksum forests, U_c tables and fleets with it: two checksums
/// match only when every byte does.
constexpr std::uint64_t fnv1a_offset = 0xcbf29ce484222325ULL;
inline std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) noexcept {
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}
/// fnv1a over a double's bit pattern.
inline std::uint64_t fnv1a(std::uint64_t hash, double value) noexcept {
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    return fnv1a(hash, std::string_view(bytes, sizeof value));
}
/// A checksum as a quoted JSON hex string ("0x..."), exact where a JSON
/// number would round a 64-bit value.
inline std::string json_hex(std::uint64_t value) {
    char text[24];
    std::snprintf(text, sizeof text, "\"0x%016llx\"", static_cast<unsigned long long>(value));
    return text;
}

/// The §V-D1 sweep: weekly data budget from 1 MB to 100 MB.
inline const std::vector<double> default_budgets_mb = {1, 2, 5, 10, 20, 50, 100};

struct bench_options {
    core::experiment_setup::options setup;
    std::vector<double> budgets_mb = default_budgets_mb;
    std::optional<std::string> csv_path;
    std::uint64_t run_seed = 5;
    /// Worker threads for the per-user round loop (threads= key). Results
    /// are bit-identical for any value; 0 = hardware_concurrency.
    std::size_t worker_threads = 1;
    /// Run-manifest output path (manifest= key); empty = no manifest.
    std::optional<std::string> manifest_path;
    /// Live exposition server (expo_port= key; 0 = ephemeral). Shared so
    /// bench_options stays copyable; every run_cell publishes into it.
    std::shared_ptr<obs::expo_server> expo;
    /// Wall-clock start, so write_run_manifest records the harness runtime.
    std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();
};

/// Parses the common command-line keys; `extra_keys` are tool-specific.
inline bench_options parse_options(int argc, char** argv,
                                   std::vector<std::string> extra_keys = {}) {
    const config cfg = config::from_args(argc, argv);
    std::vector<std::string> allowed = {"users", "seed", "trees", "csv", "budgets",
                                        "threads", "manifest", "expo_port"};
    allowed.insert(allowed.end(), extra_keys.begin(), extra_keys.end());
    cfg.restrict_to(allowed);

    bench_options opts;
    opts.setup.workload.user_count = static_cast<std::size_t>(cfg.get_int("users", 200));
    opts.setup.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    opts.setup.forest.tree_count = static_cast<std::size_t>(cfg.get_int("trees", 30));
    opts.worker_threads = static_cast<std::size_t>(cfg.get_int("threads", 1));
    if (cfg.has("csv")) opts.csv_path = cfg.get_string("csv", "");
    if (cfg.has("manifest")) opts.manifest_path = cfg.get_string("manifest", "");
    if (cfg.has("expo_port")) {
        opts.expo = std::make_shared<obs::expo_server>(
            static_cast<std::uint16_t>(cfg.get_int("expo_port", 0)));
        std::cerr << "[expo] serving http://127.0.0.1:" << opts.expo->port()
                  << "/metrics during the run\n";
    }
    // budgets=1,5,20 style override; strict parse rejects items like "5x"
    // that the old std::stod loop silently truncated.
    opts.budgets_mb = cfg.get_double_list("budgets", default_budgets_mb);
    return opts;
}

/// Builds the shared setup and echoes trace statistics.
inline std::unique_ptr<core::experiment_setup> build_setup(const bench_options& opts) {
    std::cerr << "[setup] generating workload: " << opts.setup.workload.user_count
              << " users, 1 week, seed " << opts.setup.seed << " ...\n";
    auto setup = std::make_unique<core::experiment_setup>(opts.setup);
    const auto& trace = setup->world().notifications();
    std::cerr << "[setup] " << trace.total_count << " notifications ("
              << trace.attended_count << " attended, " << trace.clicked_count
              << " clicked); forest: " << opts.setup.forest.tree_count << " trees\n";
    return setup;
}

/// Runs one (scheduler, budget) cell of a figure.
inline core::experiment_result run_cell(const core::experiment_setup& setup,
                                        core::scheduler_kind kind, core::level_t level,
                                        double budget_mb, const bench_options& opts,
                                        bool wifi = false) {
    core::experiment_params params;
    params.kind = kind;
    params.fixed_level = level;
    params.weekly_budget_mb = budget_mb;
    params.wifi_enabled = wifi;
    params.seed = opts.run_seed;
    params.worker_threads = opts.worker_threads;
    params.progress = opts.expo.get();
    return core::run_experiment(setup, params);
}

/// Accumulates a figure's series and renders them as an aligned table on
/// stdout plus, when requested, a machine-readable CSV.
class figure_output {
public:
    explicit figure_output(std::vector<std::string> headers)
        : headers_(std::move(headers)) {}

    void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

    void emit(const std::string& title, const std::optional<std::string>& csv_path) const {
        std::cout << "\n== " << title << " ==\n";
        table t(headers_);
        for (const auto& row : rows_) t.add_row(row);
        std::cout << t;
        if (!csv_path) return;
        std::ofstream out(*csv_path);
        csv_writer writer(out, headers_);
        for (const auto& row : rows_) writer.write_row(row);
        std::cerr << "[csv] wrote " << rows_.size() << " rows to " << *csv_path << '\n';
    }

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Writes the run manifest for a finished harness run (manifest= key): the
/// effective configuration, the seed pair and the wall time since
/// bench_options was parsed. No-op when the key was not given.
inline void write_run_manifest(const bench_options& opts, const std::string& tool,
                               std::size_t rows_written = 0) {
    if (!opts.manifest_path) return;
    obs::run_manifest manifest(tool);
    manifest.set_seed(opts.setup.seed);
    manifest.add_config("users", static_cast<std::uint64_t>(opts.setup.workload.user_count));
    manifest.add_config("trees", static_cast<std::uint64_t>(opts.setup.forest.tree_count));
    manifest.add_config("threads", static_cast<std::uint64_t>(opts.worker_threads));
    manifest.add_config("run_seed", opts.run_seed);
    std::string budgets;
    for (double b : opts.budgets_mb) {
        if (!budgets.empty()) budgets += ',';
        budgets += std::to_string(b);
    }
    manifest.add_config("budgets_mb", budgets);
    if (opts.csv_path) manifest.add_config("csv", *opts.csv_path);
    const double wall_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - opts.started)
            .count();
    manifest.add_timing("wall_sec", wall_sec);
    manifest.add_timing("rows_written", static_cast<double>(rows_written));
    manifest.write_file(*opts.manifest_path);
    std::cerr << "[manifest] wrote " << *opts.manifest_path << '\n';
}

} // namespace richnote::bench
