// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library takes an explicit seed (or an
// rng&) so that simulations, trace generation and model training are fully
// reproducible. The generator is xoshiro256** (Blackman & Vigna), seeded via
// splitmix64; it satisfies std::uniform_random_bit_generator so it composes
// with <random> distributions, but we also provide the handful of
// distributions the library needs directly, with stable cross-platform
// output (libstdc++ / libc++ distributions are not bit-identical).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace richnote {

/// splitmix64 step; used for seeding and as a cheap stateless hash.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless 64-bit mix of a value (one splitmix64 round).
std::uint64_t mix64(std::uint64_t value) noexcept;

/// xoshiro256** generator with explicit seeding and handy distributions.
class rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the four lanes from `seed` via splitmix64.
    explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~result_type{0}; }

    /// Next raw 64-bit output (xoshiro256**). Inline: this is the base of
    /// every per-round random draw in the round engine.
    result_type operator()() noexcept {
        const std::uint64_t result = rotl_(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl_(state_[3], 45);
        return result;
    }

    /// Advances the stream by `n` raw draws, leaving it exactly where n
    /// calls of operator() would; a cached normal() deviate is kept, as
    /// those calls would keep it. xoshiro256**'s state transition is linear
    /// over GF(2), so a long jump applies the transition's powers T^(2^i)
    /// for the set bits of n (a table of 64 such 256x256 bit matrices,
    /// 0.5 MB, built on the first long jump). Short jumps step instead.
    void discard(std::uint64_t n) noexcept;

    /// Creates an independent child stream (useful to give each simulated
    /// user / component its own generator without correlated sequences).
    rng split() noexcept;

    /// Uniform double in [0, 1).
    double uniform() noexcept {
        // 53 high-quality bits -> double in [0, 1).
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }
    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }
    /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
    /// Bernoulli trial with success probability p (clamped to [0,1]).
    bool bernoulli(double p) noexcept { return uniform() < p; }
    /// Standard normal via Marsaglia polar method.
    double normal() noexcept;
    /// Normal with the given mean / stddev.
    double normal(double mean, double stddev) noexcept;
    /// Exponential with the given rate (mean 1/rate); rate must be > 0.
    double exponential(double rate) noexcept;
    /// Poisson-distributed count with the given mean (>= 0).
    std::uint32_t poisson(double mean) noexcept;

    /// Uniformly random index into a container of the given size (> 0).
    std::size_t index(std::size_t size) noexcept;

    /// Fisher-Yates shuffle of the random-access range [first, last).
    template <typename It>
    void shuffle(It first, It last) noexcept {
        for (auto i = static_cast<std::size_t>(last - first); i > 1; --i) {
            using std::swap;
            swap(first[i - 1], first[index(i)]);
        }
    }
    template <typename T>
    void shuffle(std::vector<T>& items) noexcept {
        shuffle(items.begin(), items.end());
    }

    /// Sample an index according to (unnormalized, non-negative) weights.
    /// Returns weights.size() if the total weight is zero.
    std::size_t weighted_index(const std::vector<double>& weights) noexcept;

private:
    static constexpr std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

} // namespace richnote
