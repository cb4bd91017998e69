// Flattened Random Forest for hot-path inference.
//
// A trained random_forest stores each tree as its own node vector behind a
// decision_tree object; scoring walks T separately-allocated arrays per
// call. flat_forest repacks every tree into one contiguous arena of 16-byte
// node records laid out breadth-first per tree, so the hot top levels of a
// tree share cache lines and a node visit touches exactly one record. The
// breadth-first packing places each split's children pairwise, so a record
// only stores the LEFT child index — the right child is always left + 1 —
// and a leaf reuses the threshold slot for its probability. When every
// split threshold survives a float round-trip the builder also keeps a
// 32-bit copy (threshold32_) that the SIMD kernels gather at half the
// bandwidth and widen back to double before comparing.
//
// Batched scoring walks cache-blocked row groups trees-outer / rows-inner
// through a runtime-dispatched kernel (ml/simd_dispatch.hpp): 4-lane AVX2
// gather traversal on x86-64, interleaved independent walks elsewhere. A
// threads-accepting overload shards rows into contiguous per-thread chunks
// (common/parallel.hpp's for_each_chunk).
//
// Determinism contract: predictions are bit-identical to the source
// random_forest on every path — single-row, batched, every dispatch target
// and any thread count. All kernels perform the same comparisons on the
// same double values, per-row probabilities accumulate in tree order (the
// exact floating-point order of random_forest::predict_proba), and the
// final division by the tree count is unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace richnote::ml {

class random_forest;

class flat_forest {
public:
    /// One packed node record (public so the kernel TU's free functions can
    /// name it; treat as an implementation detail). Split node: `value` is
    /// the threshold, `left` the absolute index of the left child and
    /// left + 1 the right child. Leaf: left < 0 and `value` holds the leaf
    /// probability.
    struct node {
        double value = 0.0;
        std::int32_t left = -1;
        std::uint32_t feature = 0;
    };
    static_assert(sizeof(node) == 16, "packed node must stay 16 bytes");

    flat_forest() = default;

    /// Flattens a trained forest. The source forest is not retained.
    explicit flat_forest(const random_forest& forest);

    bool trained() const noexcept { return !root_.empty(); }
    std::size_t tree_count() const noexcept { return root_.size(); }
    std::size_t node_count() const noexcept { return nodes_.size(); }
    /// Minimum feature-vector length any walk can touch.
    std::size_t feature_count() const noexcept { return min_features_; }
    /// True when every split threshold round-trips through float, so the
    /// SIMD kernels compare against gathered-and-widened 32-bit thresholds
    /// (bit-identical to the double compare by construction).
    bool thresholds_quantized() const noexcept { return quantized_; }

    /// P(label = 1): mean of tree probabilities (bit-identical to the
    /// source random_forest::predict_proba).
    double predict_proba(std::span<const double> features) const;

    /// Hard 0/1 prediction at the 0.5 threshold.
    int predict(std::span<const double> features) const;

    /// Batched inference over a row-major matrix of `row_count` rows of
    /// `feature_count()`-or-more features each (stride = matrix.size() /
    /// row_count). Writes one probability per row into `out`.
    void predict_proba(std::span<const double> matrix, std::size_t row_count,
                       std::span<double> out) const;

    /// Multi-threaded batched inference: rows are sharded into `threads`
    /// contiguous chunks (0 = hardware_concurrency, 1 = sequential); each
    /// thread scores its own chunk and writes a disjoint slice of `out`,
    /// and all are joined before this returns. Rows are independent, so
    /// the result is bit-identical for any thread count.
    void predict_proba(std::span<const double> matrix, std::size_t row_count,
                       std::span<double> out, std::size_t threads) const;

    /// Batched inference over a dataset's feature rows.
    std::vector<double> predict_proba(const dataset& rows) const;

private:
    // One breadth-first-packed node arena for all trees; tree t's root is
    // root_[t] and child offsets are absolute indices into nodes_.
    std::vector<node> nodes_;
    std::vector<float> threshold32_; ///< split thresholds as float (iff quantized_)
    std::vector<std::uint32_t> root_;
    std::size_t min_features_ = 0;
    bool quantized_ = false;

    double walk(std::uint32_t root, const double* features) const noexcept;
    /// Scores rows [begin, end) of the matrix into out[begin..end) through
    /// the dispatched kernel (cache-blocked, trees-outer inside each block).
    void score_rows(const double* matrix, std::size_t stride, std::size_t begin,
                    std::size_t end, double* out) const noexcept;
};

} // namespace richnote::ml
