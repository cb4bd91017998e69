#include "ml/flat_forest.hpp"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "ml/random_forest.hpp"
#include "ml/simd_dispatch.hpp"
#include "obs/profile.hpp"

namespace richnote::ml {

namespace {

using node = flat_forest::node;

/// Single-chain traversal shared by the one-row path and batch remainders.
/// Branchless step: right child is always left + 1, so the comparison result
/// indexes the child pair directly.
inline double scalar_walk(const node* nodes, std::uint32_t root,
                          const double* features) noexcept {
    const node* n = nodes + root;
    std::int32_t left = n->left;
    while (left >= 0) {
        const std::uint32_t child =
            static_cast<std::uint32_t>(left) +
            static_cast<std::uint32_t>(!(features[n->feature] <= n->value));
        n = nodes + child;
        left = n->left;
    }
    return n->value;
}

/// Portable batch kernel (scalar fallback; also the NEON path — aarch64 has
/// no gather, so its win comes from the same 4 independent chains walked in
/// lockstep for instruction-level parallelism). Finished lanes park on their
/// leaf (stepping is conditional on left >= 0), identical to the SIMD
/// blend-parking, and each row's accumulator receives exactly one leaf value
/// per tree.
void score_tree_interleaved(const node* nodes, std::uint32_t root,
                            const double* block, std::size_t stride,
                            std::size_t rows, double* acc) noexcept {
    // Eight chains keep enough independent loads in flight to cover the two
    // serialized L1 loads (node record, then feature value) per level on a
    // 4-wide out-of-order core.
    constexpr std::size_t width = 8;
    std::size_t r = 0;
    for (; r + width <= rows; r += width) {
        const double* row[width];
        std::uint32_t at[width];
        for (std::size_t w = 0; w < width; ++w) {
            row[w] = block + (r + w) * stride;
            at[w] = root;
        }
        for (;;) {
            int live = 0;
#pragma GCC unroll 8
            for (std::size_t w = 0; w < width; ++w) {
                const node n = nodes[at[w]];
                live |= n.left >= 0;
                const std::uint32_t next =
                    static_cast<std::uint32_t>(n.left) +
                    static_cast<std::uint32_t>(!(row[w][n.feature] <= n.value));
                at[w] = n.left < 0 ? at[w] : next;
            }
            if (live == 0) break;
        }
        for (std::size_t w = 0; w < width; ++w) acc[r + w] += nodes[at[w]].value;
    }
    for (; r < rows; ++r) acc[r] += scalar_walk(nodes, root, block + r * stride);
}

#if defined(__x86_64__)

/// AVX2 batch kernel: 4 rows traverse one tree in lockstep, one gather per
/// field per step. Node i occupies dwords [4i, 4i+3] of the arena viewed as
/// int32 ({value lo, value hi, left, feature}) and qwords [2i, 2i+1] viewed
/// as double. Lanes that reach a leaf are parked by blending their old index
/// back in, so their (harmless, in-arena) gathers never affect live lanes.
///
/// Bit-identity with scalar_walk: the comparison is the same
/// `feature <= threshold` on the same doubles (_CMP_LE_OQ orders NaN the
/// same way: compare false, go right), thresholds gathered as f32 are only
/// used when every threshold round-trips float exactly, and each lane
/// contributes exactly one leaf value to its row in tree order.
__attribute__((target("avx2"))) void
score_tree_avx2(const node* nodes, const float* thr32, std::uint32_t root,
                const double* block, std::size_t stride, std::size_t rows,
                double* acc) noexcept {
    const int* dwords = reinterpret_cast<const int*>(nodes);
    const double* qwords = reinterpret_cast<const double*>(nodes);
    const __m128i two = _mm_set1_epi32(2);
    const __m128i one = _mm_set1_epi32(1);
    const __m128i rowoff =
        _mm_setr_epi32(0, static_cast<int>(stride), static_cast<int>(2 * stride),
                       static_cast<int>(3 * stride));
    const __m256i lane_pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    // Masked gather variants with an all-ones mask: identical to the plain
    // gathers, but they take an explicit source operand instead of the
    // _mm256_undefined_pd() that trips -Wmaybe-uninitialized in GCC headers.
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    const __m256d zero = _mm256_setzero_pd();

    // Gathers are high-latency and each tree level's gathers form a serial
    // chain, so a single 4-lane group is latency-bound. Keep `groups`
    // independent groups (16 rows) in flight per pass; their gather chains
    // overlap and the loop becomes gather-throughput-bound instead. A group
    // whose lanes are all parked keeps issuing (harmless, in-arena) gathers
    // until the slowest group finishes — depth variance across 16 adjacent
    // rows is small, so the waste is minor.
    constexpr std::size_t groups = 4;
    std::size_t r = 0;
    for (; r + 4 * groups <= rows; r += 4 * groups) {
        __m128i idx[groups];
        const double* grow[groups];
        for (std::size_t g = 0; g < groups; ++g) {
            idx[g] = _mm_set1_epi32(static_cast<int>(root));
            grow[g] = block + (r + 4 * g) * stride;
        }
        for (;;) {
            int all_leaf = 0xFFFF;
#pragma GCC unroll 4
            for (std::size_t g = 0; g < groups; ++g) {
                const __m128i addr = _mm_add_epi32(_mm_slli_epi32(idx[g], 2), two);
                const __m128i left = _mm_i32gather_epi32(dwords, addr, 4);
                const __m128i leaf = _mm_srai_epi32(left, 31);
                all_leaf &= _mm_movemask_epi8(leaf);
                const __m128i feat =
                    _mm_i32gather_epi32(dwords, _mm_add_epi32(addr, one), 4);
                __m256d thr;
                if (thr32 != nullptr) {
                    // Quantized path: gather f32 thresholds at half the
                    // bandwidth, widen back to the exact double.
                    thr = _mm256_cvtps_pd(_mm_i32gather_ps(thr32, idx[g], 4));
                } else {
                    thr = _mm256_mask_i32gather_pd(zero, qwords,
                                                   _mm_slli_epi32(idx[g], 1), all, 8);
                }
                const __m256d vals = _mm256_mask_i32gather_pd(
                    zero, grow[g], _mm_add_epi32(rowoff, feat), all, 8);
                const __m256d le = _mm256_cmp_pd(vals, thr, _CMP_LE_OQ);
                // Narrow the four 64-bit compare masks to 32-bit lane masks.
                const __m128i le32 = _mm256_castsi256_si128(
                    _mm256_permutevar8x32_epi32(_mm256_castpd_si256(le), lane_pack));
                const __m128i next =
                    _mm_blendv_epi8(_mm_add_epi32(left, one), left, le32);
                idx[g] = _mm_blendv_epi8(next, idx[g], leaf);
            }
            if (all_leaf == 0xFFFF) break;
        }
        for (std::size_t g = 0; g < groups; ++g) {
            alignas(16) std::int32_t lanes[4];
            _mm_store_si128(reinterpret_cast<__m128i*>(lanes), idx[g]);
            acc[r + 4 * g + 0] += nodes[lanes[0]].value;
            acc[r + 4 * g + 1] += nodes[lanes[1]].value;
            acc[r + 4 * g + 2] += nodes[lanes[2]].value;
            acc[r + 4 * g + 3] += nodes[lanes[3]].value;
        }
    }
    for (; r < rows; ++r) acc[r] += scalar_walk(nodes, root, block + r * stride);
}

#endif // defined(__x86_64__)

} // namespace

flat_forest::flat_forest(const random_forest& forest) {
    RICHNOTE_REQUIRE(forest.trained(), "cannot flatten an untrained forest");

    std::size_t total_nodes = 0;
    for (const decision_tree& tree : forest.trees()) total_nodes += tree.node_count();
    nodes_.reserve(total_nodes);
    threshold32_.reserve(total_nodes);
    root_.reserve(forest.tree_count());

    bool quantized = true;
    std::vector<std::uint32_t> order; // BFS visit order, in source indices
    for (const decision_tree& tree : forest.trees()) {
        const std::vector<decision_tree::node>& src = tree.nodes();
        const auto base = static_cast<std::uint32_t>(nodes_.size());
        root_.push_back(base);
        // Breadth-first repack: the i-th visited source node lands in slot
        // base + i, and a split's children are enqueued together, so the
        // right child always sits at left + 1 and is never stored.
        order.clear();
        order.push_back(0);
        for (std::size_t head = 0; head < order.size(); ++head) {
            const decision_tree::node& s = src[order[head]];
            node packed;
            if (s.left < 0) {
                packed.value = s.probability;
                packed.left = -1;
                packed.feature = 0;
            } else {
                packed.value = s.threshold;
                packed.left =
                    static_cast<std::int32_t>(base + static_cast<std::uint32_t>(order.size()));
                packed.feature = s.feature;
                order.push_back(static_cast<std::uint32_t>(s.left));
                order.push_back(static_cast<std::uint32_t>(s.right));
                const std::size_t needed = static_cast<std::size_t>(s.feature) + 1;
                if (needed > min_features_) min_features_ = needed;
                // float round-trip must reproduce the double exactly (this
                // also rejects NaN and float-overflowing thresholds).
                if (static_cast<double>(static_cast<float>(s.threshold)) != s.threshold)
                    quantized = false;
            }
            threshold32_.push_back(static_cast<float>(packed.value));
            nodes_.push_back(packed);
        }
    }
    quantized_ = quantized;
    if (!quantized_) {
        threshold32_.clear();
        threshold32_.shrink_to_fit();
    }
}

double flat_forest::walk(std::uint32_t root, const double* features) const noexcept {
    return scalar_walk(nodes_.data(), root, features);
}

double flat_forest::predict_proba(std::span<const double> features) const {
    RICHNOTE_REQUIRE(trained(), "predict on an untrained flat forest");
    RICHNOTE_REQUIRE(features.size() >= min_features_, "feature vector too short");
    double sum = 0.0;
    for (const std::uint32_t root : root_) sum += walk(root, features.data());
    return sum / static_cast<double>(root_.size());
}

int flat_forest::predict(std::span<const double> features) const {
    return predict_proba(features) >= 0.5 ? 1 : 0;
}

void flat_forest::score_rows(const double* matrix, std::size_t stride,
                             std::size_t begin, std::size_t end,
                             double* out) const noexcept {
    // Row blocks sized to keep the block's features L1-resident while one
    // tree's hot top levels stay cached across the whole block.
    constexpr std::size_t block_rows = 512;
    const node* nodes = nodes_.data();
    const float* thr32 = quantized_ ? threshold32_.data() : nullptr;
    [[maybe_unused]] const bool use_avx2 = simd::active_isa() == simd::isa::avx2;
    const double count = static_cast<double>(root_.size());

    for (std::size_t b = begin; b < end; b += block_rows) {
        const std::size_t n = std::min(block_rows, end - b);
        double* acc = out + b;
        std::fill(acc, acc + n, 0.0);
        const double* block = matrix + b * stride;
        // Trees outer, rows inner: each row accumulates in tree order, the
        // exact floating-point order of the one-row path.
        for (const std::uint32_t root : root_) {
#if defined(__x86_64__)
            if (use_avx2) {
                score_tree_avx2(nodes, thr32, root, block, stride, n, acc);
                continue;
            }
#endif
            score_tree_interleaved(nodes, root, block, stride, n, acc);
        }
        for (std::size_t r = 0; r < n; ++r) acc[r] /= count;
    }
}

void flat_forest::predict_proba(std::span<const double> matrix, std::size_t row_count,
                                std::span<double> out) const {
    predict_proba(matrix, row_count, out, 1);
}

void flat_forest::predict_proba(std::span<const double> matrix, std::size_t row_count,
                                std::span<double> out, std::size_t threads) const {
    RICHNOTE_PROFILE_SCOPE(richnote::obs::profile_slot::forest_predict);
    RICHNOTE_REQUIRE(trained(), "predict on an untrained flat forest");
    RICHNOTE_REQUIRE(out.size() == row_count, "output span must have one slot per row");
    if (row_count == 0) return;
    RICHNOTE_REQUIRE(matrix.size() % row_count == 0,
                     "matrix size must be a multiple of the row count");
    const std::size_t stride = matrix.size() / row_count;
    RICHNOTE_REQUIRE(stride >= min_features_, "matrix rows too short for this forest");

    // Contiguous per-thread row chunks writing disjoint out slices. Rows are
    // independent, so any chunk geometry yields bit-identical output.
    richnote::for_each_chunk(row_count, threads, [&](std::size_t begin, std::size_t end) {
        score_rows(matrix.data(), stride, begin, end, out.data());
    });
}

std::vector<double> flat_forest::predict_proba(const dataset& rows) const {
    std::vector<double> out(rows.size());
    if (!rows.empty()) {
        // dataset stores features row-major and contiguous; the first row's
        // span starts the matrix.
        const std::span<const double> matrix{rows.row(0).data(),
                                             rows.size() * rows.feature_count()};
        predict_proba(matrix, rows.size(), out);
    }
    return out;
}

} // namespace richnote::ml
