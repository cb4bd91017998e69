// Micro-benchmarks (google-benchmark) for the hot algorithmic kernels:
// the MCKP greedy (paper §IV claims O(n + k log n)), the indexed heap and
// Random Forest scoring. These back the paper's complexity claim with
// measured scaling rather than reproducing a figure. bm_parse_wire_line
// times the `richnote serve` ingest decoder over rendered trace lines.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/indexed_heap.hpp"
#include "common/rng.hpp"
#include "core/mckp.hpp"
#include "core/presentation.hpp"
#include "core/wire.hpp"
#include "ml/random_forest.hpp"
#include "trace/generator.hpp"

namespace {

using namespace richnote;

std::vector<core::mckp_item> make_instance(std::size_t n, std::uint64_t seed) {
    const core::audio_preview_generator generator{
        core::audio_preview_generator::params{}};
    const auto levels = generator.generate(276.0);
    rng gen(seed);
    std::vector<core::mckp_item> items;
    items.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        items.push_back(core::make_mckp_item(levels, gen.uniform(0.05, 1.0)));
    return items;
}

void bm_mckp_select(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto items = make_instance(n, 42);
    // Budget sized so roughly half of the total menu fits: the worst case
    // for upgrade count.
    const double budget = static_cast<double>(n) * 400'000.0;
    for (auto _ : state) {
        auto solution = core::select_presentations(items, budget);
        benchmark::DoNotOptimize(solution.total_utility);
    }
    state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(bm_mckp_select)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void bm_indexed_heap_push_pop(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng gen(7);
    std::vector<double> priorities(n);
    for (auto& p : priorities) p = gen.uniform();
    for (auto _ : state) {
        indexed_heap<double> heap(n);
        for (std::size_t i = 0; i < n; ++i) heap.push(i, priorities[i]);
        double acc = 0;
        while (!heap.empty()) acc += heap.top_priority(), heap.pop();
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(bm_indexed_heap_push_pop)->Range(64, 16384);

void bm_forest_predict(benchmark::State& state) {
    // A forest shaped like the content-utility model.
    ml::dataset data({"a", "b", "c", "d", "e", "f"});
    rng gen(3);
    for (int i = 0; i < 4000; ++i) {
        std::array<double, 6> row;
        for (auto& v : row) v = gen.uniform();
        data.add_row(row, row[0] + row[1] > 1.0 ? 1 : 0);
    }
    ml::random_forest forest;
    ml::forest_params params;
    params.tree_count = static_cast<std::size_t>(state.range(0));
    forest.fit(data, params, 1);

    std::array<double, 6> probe = {0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
    for (auto _ : state) {
        benchmark::DoNotOptimize(forest.predict_proba(probe));
        probe[0] = probe[0] < 0.99 ? probe[0] + 0.001 : 0.0;
    }
}
BENCHMARK(bm_forest_predict)->Arg(10)->Arg(30)->Arg(100);

void bm_pareto_prune(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng gen(13);
    std::vector<core::presentation_candidate> candidates(n);
    for (auto& c : candidates) {
        c.size_bytes = gen.uniform(1, 1e6);
        c.utility = gen.uniform(0, 1);
    }
    for (auto _ : state) {
        auto copy = candidates;
        auto useful = core::pareto_prune(std::move(copy));
        benchmark::DoNotOptimize(useful.size());
    }
}
BENCHMARK(bm_pareto_prune)->Range(16, 4096);

void bm_parse_wire_line(benchmark::State& state) {
    // Every notification of a small generated workload, rendered as the
    // NDJSON lines a producer POSTs to /ingest.
    trace::workload_params params;
    params.user_count = 50;
    const trace::workload world(params, 17);
    std::vector<std::string> lines;
    std::size_t bytes = 0;
    for (const trace::notification& n : world.notifications().flatten()) {
        lines.push_back(core::format_wire_line(n));
        bytes += lines.back().size();
    }
    trace::notification out;
    for (auto _ : state) {
        for (const std::string& line : lines) {
            const bool ok = core::parse_wire_line(line, out);
            benchmark::DoNotOptimize(ok);
            benchmark::DoNotOptimize(out.id);
        }
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * lines.size()));
}
BENCHMARK(bm_parse_wire_line);

} // namespace

BENCHMARK_MAIN();
