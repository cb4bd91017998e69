// Indexed binary heap with update-key, behind the MCKP gradient heap
// (src/core/mckp.*).
//
// Elements are identified by a dense external id in [0, capacity). The heap
// supports push / pop-top / update-priority / erase in O(log n), and keeps
// the paper's `O(n + k log n)` bound for SelectPresentations via bulk
// `build` (Floyd heapify, O(n)).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/error.hpp"

namespace richnote {

/// Compare is a strict weak ordering on priorities; the element whose
/// priority compares GREATEST (by Compare as "less") is at the top — i.e.
/// with std::less this is a max-heap.
template <typename Priority, typename Compare = std::less<Priority>>
class indexed_heap {
public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    explicit indexed_heap(std::size_t capacity = 0, Compare cmp = Compare{})
        : cmp_(std::move(cmp)), position_(capacity, npos) {}

    std::size_t size() const noexcept { return heap_.size(); }
    bool empty() const noexcept { return heap_.empty(); }
    std::size_t capacity() const noexcept { return position_.size(); }

    bool contains(std::size_t id) const noexcept {
        return id < position_.size() && position_[id] != npos;
    }

    /// Grows the id space (existing entries keep their ids).
    void reserve_ids(std::size_t capacity) {
        if (capacity > position_.size()) position_.resize(capacity, npos);
    }

    /// O(n) bulk construction from (id, priority) pairs; replaces contents.
    void build(const std::vector<std::pair<std::size_t, Priority>>& items) {
        heap_.clear();
        std::fill(position_.begin(), position_.end(), npos);
        heap_.reserve(items.size());
        for (const auto& [id, priority] : items) {
            RICHNOTE_REQUIRE(id < position_.size(), "heap id out of range");
            RICHNOTE_REQUIRE(position_[id] == npos, "duplicate id in heap build");
            position_[id] = heap_.size();
            heap_.push_back(entry{id, priority});
        }
        if (heap_.size() > 1) {
            for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
        }
    }

    void push(std::size_t id, Priority priority) {
        RICHNOTE_REQUIRE(id < position_.size(), "heap id out of range");
        RICHNOTE_REQUIRE(position_[id] == npos, "id already in heap");
        position_[id] = heap_.size();
        heap_.push_back(entry{id, std::move(priority)});
        sift_up(heap_.size() - 1);
    }

    /// Id of the top element; heap must be non-empty.
    std::size_t top_id() const {
        RICHNOTE_REQUIRE(!heap_.empty(), "top of an empty heap");
        return heap_.front().id;
    }

    const Priority& top_priority() const {
        RICHNOTE_REQUIRE(!heap_.empty(), "top of an empty heap");
        return heap_.front().priority;
    }

    const Priority& priority_of(std::size_t id) const {
        RICHNOTE_REQUIRE(contains(id), "id not in heap");
        return heap_[position_[id]].priority;
    }

    /// Removes and returns the top id.
    std::size_t pop() {
        const std::size_t id = top_id();
        erase(id);
        return id;
    }

    /// Changes the priority of an existing element, restoring heap order.
    void update(std::size_t id, Priority priority) {
        RICHNOTE_REQUIRE(contains(id), "id not in heap");
        const std::size_t pos = position_[id];
        const bool increased = cmp_(heap_[pos].priority, priority);
        heap_[pos].priority = std::move(priority);
        if (increased)
            sift_up(pos);
        else
            sift_down(pos);
    }

    void erase(std::size_t id) {
        RICHNOTE_REQUIRE(contains(id), "id not in heap");
        const std::size_t pos = position_[id];
        const std::size_t last = heap_.size() - 1;
        if (pos != last) {
            swap_entries(pos, last);
            heap_.pop_back();
            position_[id] = npos;
            // The moved element may need to go either way.
            if (!sift_up(pos)) sift_down(pos);
        } else {
            heap_.pop_back();
            position_[id] = npos;
        }
    }

    void clear() noexcept {
        heap_.clear();
        std::fill(position_.begin(), position_.end(), npos);
    }

    /// Verifies the heap property and index consistency (test support).
    bool validate() const {
        for (std::size_t i = 0; i < heap_.size(); ++i) {
            if (position_[heap_[i].id] != i) return false;
            const std::size_t left = 2 * i + 1;
            const std::size_t right = 2 * i + 2;
            if (left < heap_.size() && cmp_(heap_[i].priority, heap_[left].priority)) return false;
            if (right < heap_.size() && cmp_(heap_[i].priority, heap_[right].priority))
                return false;
        }
        return true;
    }

private:
    struct entry {
        std::size_t id;
        Priority priority;
    };

    void swap_entries(std::size_t a, std::size_t b) noexcept {
        using std::swap;
        swap(heap_[a], heap_[b]);
        position_[heap_[a].id] = a;
        position_[heap_[b].id] = b;
    }

    /// Returns true if the element moved.
    bool sift_up(std::size_t pos) {
        bool moved = false;
        while (pos > 0) {
            const std::size_t parent = (pos - 1) / 2;
            if (!cmp_(heap_[parent].priority, heap_[pos].priority)) break;
            swap_entries(parent, pos);
            pos = parent;
            moved = true;
        }
        return moved;
    }

    void sift_down(std::size_t pos) {
        for (;;) {
            const std::size_t left = 2 * pos + 1;
            const std::size_t right = 2 * pos + 2;
            std::size_t best = pos;
            if (left < heap_.size() && cmp_(heap_[best].priority, heap_[left].priority))
                best = left;
            if (right < heap_.size() && cmp_(heap_[best].priority, heap_[right].priority))
                best = right;
            if (best == pos) return;
            swap_entries(pos, best);
            pos = best;
        }
    }

    Compare cmp_;
    std::vector<entry> heap_;
    std::vector<std::size_t> position_;
};

} // namespace richnote
