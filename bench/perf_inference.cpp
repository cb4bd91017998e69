// Perf harness for content-utility inference (tracked trajectory:
// BENCH_perf.json).
//
// U_c precomputation and online retraining both score every notification
// through the forest; this harness measures that kernel three ways on one
// synthetic dataset:
//  - forest_item:  random_forest::predict_proba per row (tree objects,
//                  pointer-chasing node vectors) — the pre-flattening path;
//  - flat_item:    flat_forest::predict_proba per row (one SoA arena);
//  - flat_batch:   flat_forest batched predict over the whole matrix
//                  (cache-blocked, trees-outer / rows-inner) through the
//                  runtime-dispatched SIMD kernel — the
//                  cached_content_utility precompute path;
//  - flat_batch_mt: the same batch sharded across worker threads.
// Each scorer runs repeat= passes and reports its best items/sec (best-of-N
// rides out scheduler noise).
//
// It also times the two set-up steps experiment_setup runs on every core
// (DESIGN.md §8.2), each on one thread and on fit_threads= threads
// (0 = every hardware thread), best of repeat= passes: random_forest::fit,
// and cached_content_utility scoring a generated 2000-user trace through
// the forest. Each step reports a checksum per thread count (FNV-1a
// over the saved forest's bytes, and over the U_c table in id order); the
// harness fails unless the two match. It verifies that every path
// — including the batch under BOTH dispatch targets (the active kernel and
// the forced-scalar fallback) — produces bit-identical probabilities before
// reporting anything. The detected ISA + chosen kernel is reported as the
// `uarch` field so trajectory comparisons can tell a cross-machine run from
// a regression.
//
// Output is machine-readable JSON on stdout (or json=PATH); scripts/bench.sh
// folds it into BENCH_perf.json at the repo root.
//
// Usage: perf_inference [rows=20000] [trees=50] [seed=1] [repeat=5]
//                       [fit_threads=0] [json=PATH]
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/utility.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "ml/simd_dispatch.hpp"
#include "obs/run_manifest.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Click-trace-shaped synthetic data: six features, logistic label.
richnote::ml::dataset make_data(std::size_t rows, std::uint64_t seed) {
    richnote::ml::dataset d({"f0", "f1", "f2", "f3", "f4", "f5"});
    richnote::rng gen(seed);
    for (std::size_t i = 0; i < rows; ++i) {
        std::array<double, 6> x{};
        for (double& f : x) f = gen.uniform(-1, 1);
        const double z = 2.5 * x[0] - 1.5 * x[1] + x[2] - 0.5 * x[3] + gen.normal(0, 0.6);
        d.add_row(x, z > 0 ? 1 : 0);
    }
    return d;
}

/// Best wall-clock of `repeat` runs of `body` (checksum defeats DCE).
template <typename F>
double best_of(std::size_t repeat, F&& body) {
    double best = 1e300;
    for (std::size_t i = 0; i < repeat; ++i) {
        const auto start = clock_type::now();
        body();
        best = std::min(best, seconds_since(start));
    }
    return best;
}

/// Users in the trace the U_c cache is timed on: ~150k notes, enough for
/// every thread to score many 1024-row blocks.
constexpr std::size_t cache_users = 2000;

std::uint64_t forest_checksum(const richnote::ml::random_forest& forest) {
    std::ostringstream bytes;
    forest.save(bytes);
    return richnote::bench::fnv1a(richnote::bench::fnv1a_offset, bytes.str());
}

/// FNV-1a over the cached U_c table in id order (the generator numbers the
/// trace's notes 0..n-1 in per-user stream order).
std::uint64_t table_checksum(const richnote::core::cached_content_utility& cache,
                             const richnote::trace::notification_trace& trace) {
    std::uint64_t hash = richnote::bench::fnv1a_offset;
    for (const auto& stream : trace.per_user)
        for (const auto& n : stream) hash = richnote::bench::fnv1a(hash, cache.content_utility(n));
    return hash;
}

} // namespace

int main(int argc, char** argv) try {
    using namespace richnote;

    const config cfg = config::from_args(argc, argv);
    cfg.restrict_to({"rows", "trees", "seed", "repeat", "fit_threads", "json",
                     "manifest"});
    const auto rows = static_cast<std::size_t>(cfg.get_int("rows", 20000));
    const auto trees = static_cast<std::size_t>(cfg.get_int("trees", 50));
    const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    const auto repeat = static_cast<std::size_t>(cfg.get_int("repeat", 5));
    const auto fit_threads = static_cast<std::size_t>(cfg.get_int("fit_threads", 0));
    const std::size_t threads = resolve_threads(fit_threads, SIZE_MAX);

    std::cerr << "[perf] generating " << rows << " rows, training " << trees
              << " trees...\n";
    const ml::dataset train = make_data(2000, seed);
    const ml::dataset probe = make_data(rows, seed + 1);

    ml::forest_params params;
    params.tree_count = trees;

    ml::random_forest forest;
    params.fit_threads = 1;
    const double fit_sequential_sec =
        best_of(repeat, [&] { forest.fit(train, params, seed); });

    ml::random_forest forest_parallel;
    params.fit_threads = fit_threads;
    const double fit_parallel_sec =
        best_of(repeat, [&] { forest_parallel.fit(train, params, seed); });

    const std::uint64_t fit_sequential_checksum = forest_checksum(forest);
    const std::uint64_t fit_parallel_checksum = forest_checksum(forest_parallel);
    RICHNOTE_CHECK(fit_parallel_checksum == fit_sequential_checksum,
                   "parallel fit saved different forest bytes");

    std::cerr << "[perf] generating a " << cache_users << "-user trace for the U_c cache...\n";
    trace::workload_params workload;
    workload.user_count = cache_users;
    const trace::workload world(workload, seed);
    const auto& notes = world.notifications();
    const core::forest_content_utility model(std::make_shared<ml::random_forest>(forest));
    std::unique_ptr<core::cached_content_utility> cache;
    const double cache_sequential_sec = best_of(repeat, [&] {
        cache = std::make_unique<core::cached_content_utility>(notes, model, 1);
    });
    const std::uint64_t cache_sequential_checksum = table_checksum(*cache, notes);
    const double cache_parallel_sec = best_of(repeat, [&] {
        cache = std::make_unique<core::cached_content_utility>(notes, model, fit_threads);
    });
    const std::uint64_t cache_parallel_checksum = table_checksum(*cache, notes);
    RICHNOTE_CHECK(cache_parallel_checksum == cache_sequential_checksum,
                   "U_c cache scored on several threads differs from one thread");

    const ml::flat_forest flat(forest);
    const std::string uarch =
        std::string(ml::simd::arch_name()) + "/" + ml::simd::isa_name(ml::simd::active_isa());

    // Correctness gate: all scoring paths must agree bit-for-bit — the
    // active dispatch target, the forced-scalar kernel, the threaded batch
    // — and the parallel fit must reproduce the sequential forest exactly.
    std::vector<double> reference(rows);
    for (std::size_t r = 0; r < rows; ++r)
        reference[r] = forest.predict_proba(probe.row(r));
    const std::vector<double> batched = flat.predict_proba(probe);
    const std::span<const double> matrix{probe.row(0).data(),
                                         rows * probe.feature_count()};
    std::vector<double> scalar_batched(rows);
    {
        ml::simd::scoped_isa_override force(ml::simd::isa::scalar);
        flat.predict_proba(matrix, rows, scalar_batched);
    }
    std::vector<double> threaded_batched(rows);
    flat.predict_proba(matrix, rows, threaded_batched, 0);
    for (std::size_t r = 0; r < rows; ++r) {
        RICHNOTE_CHECK(flat.predict_proba(probe.row(r)) == reference[r],
                       "flat single-row prediction diverged from the forest");
        RICHNOTE_CHECK(batched[r] == reference[r],
                       "flat batched prediction diverged from the forest");
        RICHNOTE_CHECK(scalar_batched[r] == reference[r],
                       "scalar-kernel batch diverged from the forest");
        RICHNOTE_CHECK(threaded_batched[r] == reference[r],
                       "threaded batch diverged from the forest");
        RICHNOTE_CHECK(forest_parallel.predict_proba(probe.row(r)) == reference[r],
                       "parallel fit diverged from the sequential forest");
    }

    std::cerr << "[perf] timing scorers (" << repeat << " passes each)...\n";
    double checksum = 0.0;
    const double forest_item_sec = best_of(repeat, [&] {
        double sum = 0.0;
        for (std::size_t r = 0; r < rows; ++r) sum += forest.predict_proba(probe.row(r));
        checksum = sum;
    });
    const double flat_item_sec = best_of(repeat, [&] {
        double sum = 0.0;
        for (std::size_t r = 0; r < rows; ++r) sum += flat.predict_proba(probe.row(r));
        checksum = sum;
    });
    std::vector<double> out(rows);
    const double flat_batch_sec = best_of(repeat, [&] {
        flat.predict_proba(matrix, rows, out);
        checksum = out[rows - 1];
    });
    const double flat_batch_mt_sec = best_of(repeat, [&] {
        flat.predict_proba(matrix, rows, out, fit_threads);
        checksum = out[rows - 1];
    });

    const double n = static_cast<double>(rows);
    const double forest_rate = n / forest_item_sec;
    const double flat_item_rate = n / flat_item_sec;
    const double flat_batch_rate = n / flat_batch_sec;
    const double flat_batch_mt_rate = n / flat_batch_mt_sec;

    std::ostringstream json;
    json.precision(6);
    json << std::fixed;
    json << "{\n"
         << "  \"bench\": \"perf_inference\",\n"
         << "  \"schema\": \"richnote-bench-v1\",\n"
         << "  \"params\": {\"rows\": " << rows << ", \"trees\": " << trees
         << ", \"seed\": " << seed << ", \"repeat\": " << repeat
         << ", \"fit_threads\": " << fit_threads << "},\n"
         << "  \"scoring\": {\"forest_items_per_sec\": " << forest_rate
         << ", \"flat_items_per_sec\": " << flat_item_rate
         << ", \"flat_batch_items_per_sec\": " << flat_batch_rate
         << ", \"flat_batch_mt_items_per_sec\": " << flat_batch_mt_rate
         << ", \"flat_batch_speedup\": " << flat_batch_rate / forest_rate
         << ", \"uarch\": \"" << uarch << "\""
         << ", \"bit_identical\": true},\n"
         << "  \"fit\": {\"sequential_sec\": " << fit_sequential_sec
         << ", \"parallel_sec\": " << fit_parallel_sec
         << ", \"threads\": " << threads
         << ", \"sequential_checksum\": " << richnote::bench::json_hex(fit_sequential_checksum)
         << ", \"parallel_checksum\": " << richnote::bench::json_hex(fit_parallel_checksum)
         << ", \"checksum\": " << checksum << "},\n"
         << "  \"cache\": {\"users\": " << cache_users << ", \"notes\": " << notes.total_count
         << ", \"sequential_sec\": " << cache_sequential_sec
         << ", \"parallel_sec\": " << cache_parallel_sec
         << ", \"threads\": " << threads
         << ", \"sequential_checksum\": " << richnote::bench::json_hex(cache_sequential_checksum)
         << ", \"parallel_checksum\": " << richnote::bench::json_hex(cache_parallel_checksum) << "}\n"
         << "}\n";

    if (cfg.has("json")) {
        const std::string path = cfg.get_string("json", "");
        std::ofstream out_file(path);
        out_file << json.str();
        std::cerr << "[perf] wrote " << path << '\n';
    } else {
        std::cout << json.str();
    }

    if (cfg.has("manifest")) {
        richnote::obs::run_manifest manifest("perf_inference");
        manifest.set_seed(seed);
        manifest.add_config("rows", static_cast<std::uint64_t>(rows));
        manifest.add_config("trees", static_cast<std::uint64_t>(trees));
        manifest.add_config("repeat", static_cast<std::uint64_t>(repeat));
        manifest.add_config("fit_threads", static_cast<std::uint64_t>(fit_threads));
        manifest.add_config("uarch", uarch);
        manifest.add_timing("forest_items_per_sec", forest_rate);
        manifest.add_timing("flat_items_per_sec", flat_item_rate);
        manifest.add_timing("flat_batch_items_per_sec", flat_batch_rate);
        manifest.add_timing("flat_batch_mt_items_per_sec", flat_batch_mt_rate);
        manifest.add_timing("fit_sequential_sec", fit_sequential_sec);
        manifest.add_timing("fit_parallel_sec", fit_parallel_sec);
        manifest.add_timing("cache_sequential_sec", cache_sequential_sec);
        manifest.add_timing("cache_parallel_sec", cache_parallel_sec);
        manifest.write_file(cfg.get_string("manifest", ""));
        std::cerr << "[perf] wrote manifest to " << cfg.get_string("manifest", "") << '\n';
    }
    return 0;
} catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
