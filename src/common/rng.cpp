#include "common/rng.hpp"

#include <bit>
#include <cmath>
#include <memory>

namespace richnote {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t value) noexcept {
    std::uint64_t state = value;
    return splitmix64(state);
}

rng::rng(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& lane : state_) lane = splitmix64(s);
}

namespace {

using state_bits = std::array<std::uint64_t, 4>;

/// A GF(2)-linear map on the 256-bit state, stored as the images of the
/// unit vectors: column[64 * w + b] is the image of bit b of lane w.
struct bit_matrix {
    std::array<state_bits, 256> column;

    state_bits apply(const state_bits& x) const noexcept {
        state_bits y{};
        for (std::size_t w = 0; w < 4; ++w) {
            for (std::uint64_t bits = x[w]; bits != 0; bits &= bits - 1) {
                const state_bits& c =
                    column[64 * w + static_cast<std::size_t>(std::countr_zero(bits))];
                for (std::size_t i = 0; i < 4; ++i) y[i] ^= c[i];
            }
        }
        return y;
    }
};

/// Entry i is T^(2^i), T being one step of the state. T^n is the product
/// of the entries for the set bits of n, in any order: powers of T commute.
using jump_table = std::array<bit_matrix, 64>;

} // namespace

void rng::discard(std::uint64_t n) noexcept {
    // One matrix application costs about as much as 150 steps, and a jump
    // takes popcount(n) of them: from 1024 draws on a jump costs no more
    // than stepping even when every bit of n is set (x86-64, -O2: 0.2 us
    // per application, 1.3 ns per step; 2.8 vs 3.1 us at n = 2047).
    constexpr std::uint64_t min_jump = 1024;
    if (n < min_jump) {
        for (; n > 0; --n) (void)(*this)();
        return;
    }
    static const std::unique_ptr<const jump_table> table = [] {
        auto powers = std::make_unique<jump_table>();
        for (std::size_t k = 0; k < 256; ++k) {
            rng unit;
            unit.state_ = {};
            unit.state_[k / 64] = std::uint64_t{1} << (k % 64);
            (void)unit();
            (*powers)[0].column[k] = unit.state_;
        }
        for (std::size_t i = 1; i < powers->size(); ++i)
            for (std::size_t k = 0; k < 256; ++k)
                (*powers)[i].column[k] = (*powers)[i - 1].apply((*powers)[i - 1].column[k]);
        return powers;
    }();
    for (std::size_t i = 0; n != 0; ++i, n >>= 1)
        if ((n & 1) != 0) state_ = (*table)[i].apply(state_);
}

rng rng::split() noexcept { return rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>((*this)()); // full 64-bit range
    // Lemire-style rejection-free-ish bounded draw with rejection of the
    // biased tail; unbiased and fast for any span.
    const std::uint64_t threshold = -span % span;
    for (;;) {
        const std::uint64_t r = (*this)();
        const __uint128_t m = static_cast<__uint128_t>(r) * span;
        if (static_cast<std::uint64_t>(m) >= threshold)
            return lo + static_cast<std::int64_t>(m >> 64);
    }
}

double rng::normal() noexcept {
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    double u = 0, v = 0, s = 0;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_normal_ = v * factor;
    has_cached_normal_ = true;
    return u * factor;
}

double rng::normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

double rng::exponential(double rate) noexcept {
    // 1 - uniform() is in (0, 1], so the log is finite.
    return -std::log(1.0 - uniform()) / rate;
}

std::uint32_t rng::poisson(double mean) noexcept {
    if (mean <= 0.0) return 0;
    if (mean < 30.0) {
        // Knuth's product-of-uniforms method.
        const double limit = std::exp(-mean);
        std::uint32_t count = 0;
        double product = uniform();
        while (product > limit) {
            ++count;
            product *= uniform();
        }
        return count;
    }
    // Normal approximation with continuity correction for large means.
    const double sample = normal(mean, std::sqrt(mean));
    return sample <= 0.0 ? 0u : static_cast<std::uint32_t>(sample + 0.5);
}

std::size_t rng::index(std::size_t size) noexcept {
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

std::size_t rng::weighted_index(const std::vector<double>& weights) noexcept {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) return weights.size();
    double target = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0) return i;
    }
    return weights.size() - 1; // floating-point slack lands on the last item
}

} // namespace richnote
