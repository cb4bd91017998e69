#include "core/worker_pool.hpp"

#include <string>

#include "common/error.hpp"

namespace richnote::core {

void worker_pool::require_thread_count(std::size_t threads) {
    RICHNOTE_REQUIRE(threads >= 1 && threads <= max_threads,
                     "worker thread count must be between 1 and " +
                         std::to_string(max_threads));
}

worker_pool::worker_pool(std::size_t threads) : threads_(threads) {
    require_thread_count(threads);
    workers_.reserve(threads - 1);
    for (std::size_t slot = 1; slot < threads; ++slot) {
        workers_.emplace_back([this, slot] { worker_loop(slot); });
    }
}

worker_pool::~worker_pool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (auto& t : workers_) t.join();
}

void worker_pool::worker_loop(std::size_t slot) {
    std::uint64_t seen = 0;
    while (true) {
        const std::function<void(std::size_t)>* job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(lock, [&] { return stopping_ || generation_ != seen; });
            if (stopping_) return;
            seen = generation_;
            job = job_;
        }
        (*job)(slot);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--pending_ == 0) work_done_.notify_one();
        }
    }
}

void worker_pool::run(const std::function<void(std::size_t)>& fn) {
    if (threads_ == 1) {
        ++generation_; // no lock needed: nobody else reads it without workers
        fn(0);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &fn;
        pending_ = threads_ - 1;
        ++generation_;
    }
    work_ready_.notify_all();
    fn(0); // the driver is always worker 0 — one spawn fewer, zero idle cores
    std::unique_lock<std::mutex> lock(mutex_);
    work_done_.wait(lock, [&] { return pending_ == 0; });
    job_ = nullptr;
}

void worker_pool::run_tasks(std::size_t n, const std::function<void(std::size_t)>& fn) {
    run_sharded(n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
}

void worker_pool::run_sharded(std::size_t n,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
    const std::size_t slots = threads_;
    const std::function<void(std::size_t)> per_slot = [&](std::size_t slot) {
        const auto [lo, hi] = shard_range(n, slot, slots);
        if (lo < hi) fn(lo, hi);
    };
    run(per_slot);
}

} // namespace richnote::core
