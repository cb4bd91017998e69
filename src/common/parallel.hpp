// Fork-join helpers for set-up work (forest fit, batch scoring, the U_c
// cache): spawn, run, join, and nothing left behind. Each call starts its
// threads and joins every one before it returns, so no thread outlives the
// call and nothing waits by spinning. The calling thread does part 0
// itself. Results are deterministic when each part writes only its own
// slots and depends only on its index, never on which thread ran it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace richnote {

/// A requested thread count made concrete: 0 means every hardware thread,
/// and the count never exceeds the `parts` there are to hand out (at
/// least 1).
inline std::size_t resolve_threads(std::size_t requested, std::size_t parts) noexcept {
    std::size_t threads = requested;
    if (threads == 0)
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    return std::max<std::size_t>(1, std::min(threads, parts));
}

/// Runs fn(w) once for every w in [0, threads): w = 0 on the calling
/// thread, the others on threads spawned here and joined before returning.
/// An exception from any fn(w) is rethrown after the join; the lowest w's
/// wins.
template <typename Fn>
void run_on_threads(std::size_t threads, const Fn& fn) {
    if (threads <= 1) {
        fn(std::size_t{0});
        return;
    }
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads - 1);
    const auto guarded = [&](std::size_t w) {
        try {
            fn(w);
        } catch (...) {
            errors[w] = std::current_exception();
        }
    };
    for (std::size_t w = 1; w < threads; ++w) workers.emplace_back(guarded, w);
    guarded(0);
    for (std::thread& worker : workers) worker.join();
    for (const std::exception_ptr& error : errors)
        if (error) std::rethrow_exception(error);
}

/// Splits [0, n) into `threads` contiguous chunks (0 = every hardware
/// thread; never more chunks than n) and runs fn(begin, end) for each
/// through run_on_threads. Chunk w is [n*w/T, n*(w+1)/T), the split
/// worker_pool::shard_range uses.
template <typename Fn>
void for_each_chunk(std::size_t n, std::size_t threads, const Fn& fn) {
    if (n == 0) return;
    const std::size_t chunks = resolve_threads(threads, n);
    run_on_threads(chunks,
                   [&](std::size_t w) { fn(n * w / chunks, n * (w + 1) / chunks); });
}

} // namespace richnote
