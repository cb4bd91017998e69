// Sample statistics for the benchmark's reported timings.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace richbench {

/// A nearest-rank percentile with the evidence behind it.
struct percentile_reading {
    double value = 0.0;
    std::size_t samples = 0; ///< total sample count
    std::size_t beyond = 0;  ///< samples strictly above the selected rank
};

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr std::size_t min_beyond = 10;

/// Nearest-rank percentile `q` in (0, 1] of `samples` (copied, then sorted):
/// the value at 1-based rank ceil(q * n). Throws std::runtime_error when
/// fewer than `min_beyond` samples lie beyond that rank, so a reported p99
/// always rests on at least ten worse observations.
percentile_reading select_percentile(std::vector<double> samples, double q);

/// Median (nearest-rank 0.5) without the tail-count requirement; for
/// summarizing a handful of repetitions. Throws on an empty input.
double median(std::vector<double> samples);

double mean(const std::vector<double>& samples);

/// Peak resident set (VmHWM) of process `pid` in MB (0 = this process).
/// Throws when /proc does not have it.
double peak_rss_mb(int pid = 0);
/// CPU time (user + system, all threads, the ones that have exited too)
/// process `pid` has used, in seconds (0 = this process). The kernel
/// charges time the hypervisor stole from a virtual CPU to no process, so
/// on a shared host this reads the program's own work where wall-clock
/// time also reads the neighbours' load. Throws when /proc does not have it.
double cpu_seconds(int pid = 0);
/// Heap bytes this process has allocated and not freed (glibc mallinfo2:
/// arena plus mmapped chunks). Unlike RSS it does not hide reuse of memory
/// an earlier pass freed.
double heap_bytes_in_use();

} // namespace richbench
