// Persistent, topology-aware worker pool for the sharded round loop
// (DESIGN.md §11).
//
// The historical parallel round loop spawned and joined a fresh
// std::vector<std::thread> every round — at service cadence that is a
// thread create/destroy storm costing far more than the round body itself
// for large fleets of mostly-idle users. This pool creates its threads
// ONCE; each round the driver hands every worker the same callable and a
// worker index, and the workers process their FIXED contiguous user shard
// (the same `n*w/W .. n*(w+1)/W` split the spawn-per-round loop used, so
// outputs are bit-identical by construction). Pinning worker w to shard w
// for the lifetime of the pool keeps each shard's broker state hot in the
// core that served it last round — the "topology-aware" part. That holds
// for the batch loop, which shards the whole fleet. The service no longer
// pins fleet shards: it shards only its active list (the users with work
// this round), so which users a slot serves changes from round to round.
//
// Dispatch is a generation-counter handoff under one mutex: the driver
// publishes the callable, bumps the generation and wakes everyone; workers
// run their slot and count down a pending counter whose zero-crossing wakes
// the driver. All ~microsecond-scale, negligible against even a 2000-user
// round, and every transition is mutex-ordered so the pool is clean under
// TSan.
//
// A pool of T threads spawns T-1 workers: slot 0 always runs on the
// calling (driver) thread, so `worker_pool(1)` degenerates to a plain
// inline call with zero threads and zero synchronization — the sequential
// batch path stays exactly what it was.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace richnote::core {

class worker_pool {
public:
    /// Ceiling on the thread count: a pool is sized from a config key or a
    /// request body, and an absurd count must fail with a named error
    /// instead of trying to spawn it.
    static constexpr std::size_t max_threads = 256;

    /// REQUIREs 1 <= threads <= max_threads: the threads= config key and
    /// every other caller get one named error. POST /reshard range-checks
    /// its parsed K against max_threads itself and answers 400.
    static void require_thread_count(std::size_t threads);

    /// Spawns `threads - 1` persistent workers (1..max_threads; 1 = fully
    /// inline, no threads at all).
    explicit worker_pool(std::size_t threads);
    ~worker_pool();

    worker_pool(const worker_pool&) = delete;
    worker_pool& operator=(const worker_pool&) = delete;

    std::size_t threads() const noexcept { return threads_; }

    /// Runs `fn(w)` for every worker slot w in [0, threads()): slot 0 on
    /// the calling thread, the rest on the pinned workers. Returns when all
    /// slots finished. The callable must partition its own work by slot
    /// (see shard_range). Not reentrant.
    void run(const std::function<void(std::size_t)>& fn);

    /// Convenience: runs `fn(lo, hi)` over the contiguous shard of [0, n)
    /// owned by each slot — the exact split the historical per-round spawn
    /// used, so any output that was bit-identical across thread counts
    /// stays bit-identical.
    void run_sharded(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

    /// Convenience for independent task fan-out (the eval harness's replica
    /// waves): runs `fn(i)` once for every i in [0, n), statically sharded
    /// like run_sharded. Callers that store result i into slot i of a
    /// pre-sized buffer get output independent of the thread count for free.
    void run_tasks(std::size_t n, const std::function<void(std::size_t)>& fn);

    /// Slot w's contiguous half-open range of [0, n).
    static std::pair<std::size_t, std::size_t> shard_range(std::size_t n, std::size_t slot,
                                                           std::size_t slots) noexcept {
        return {n * slot / slots, n * (slot + 1) / slots};
    }

    /// Rounds dispatched so far (diagnostics / tests).
    std::uint64_t rounds_dispatched() const noexcept { return generation_; }

private:
    void worker_loop(std::size_t slot);

    std::size_t threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable work_done_;
    const std::function<void(std::size_t)>* job_ = nullptr;
    std::uint64_t generation_ = 0; ///< bumped per run(); workers chase it
    std::size_t pending_ = 0;      ///< workers still inside the current job
    bool stopping_ = false;
};

} // namespace richnote::core
