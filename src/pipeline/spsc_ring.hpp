// spsc_ring.hpp — bounded lock-free single-producer/single-consumer queue.
//
// Models the CPU→FPGA streaming link of the hybrid node (the Cray XD1's
// RapidArray path): the software component pushes blocks of raw detector
// samples, the processing component pops them; a full ring exerts
// backpressure on the producer, which the hybrid orchestrator counts as
// stall time. Classic Lamport ring with C++11 acquire/release ordering and
// cache-line-separated indices, extended two ways for the hot path:
//
//  * batch transfer — push_batch/pop_batch move a contiguous span of
//    elements (split across at most two segments at the wrap point) and
//    publish with a single release-store, so the protocol cost is paid
//    once per batch instead of once per ~32-byte record;
//  * cached peer indices — each side keeps a local copy of the other
//    side's index and only re-reads the shared atomic when the cached
//    distance can no longer prove space (producer) or data (consumer).
//    A push/pop that the cache can prove does zero atomic loads.
//
// Waiting is not the ring's job: try_*/push_batch/pop_batch never block.
// A side that finds the ring empty (consumer) or full (producer) calls
// wait_for_data()/wait_for_space(), which spin briefly and then park on a
// Doorbell (pipeline/doorbell.hpp) that every publication of the peer
// rings — one doorbell per wait direction, each on its ringer's cache line.
//
// The ring is templatized over an atomics policy (common/atomics_policy.hpp)
// so the exhaustive model checker in src/check/ can instantiate the *same*
// protocol logic with shadow atomics and verify every interleaving under the
// simulated C++11 memory model; the default policy is std::atomic with the
// canonical orders and compiles to the untemplatized code exactly. The
// happens-before argument lives in DESIGN.md ("Memory model"); the litmus
// units live in src/check/litmus.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/atomics_policy.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "pipeline/doorbell.hpp"

namespace htims::pipeline {

/// Bounded SPSC queue of movable elements. Exactly one producer thread may
/// call try_push/push_batch and exactly one consumer thread may call
/// try_pop/pop_batch.
///
/// Ownership and shutdown rule: the ring does not own either thread. The
/// scope that created producer and consumer must join *both* before the ring
/// is destroyed — destruction is not synchronized and a late try_push/try_pop
/// is a use-after-free. (HybridPipeline::run() satisfies this by joining its
/// producer before the ring leaves scope; the consumer is run()'s own
/// thread.) The TSan gate's shutdown stress test pins this ordering down.
template <typename T, typename Atomics = common::StdAtomics>
class SpscRing {
public:
    /// Largest accepted capacity: one more doubling would wrap size_t.
    static constexpr std::size_t kMaxCapacity =
        (std::numeric_limits<std::size_t>::max() >> 1) + 1;

    /// `capacity` is rounded up to a power of two (minimum 2). Capacities
    /// past kMaxCapacity are rejected up front — the round-up loop would
    /// otherwise wrap to zero before any allocation failed.
    explicit SpscRing(std::size_t capacity) {
        if (capacity > kMaxCapacity)
            throw ConfigError("ring capacity " + std::to_string(capacity) +
                              " exceeds the addressable maximum");
        std::size_t cap = 2;
        while (cap < capacity) cap <<= 1;
        HTIMS_CHECK(cap >= capacity && cap >= 2, "ring capacity overflowed size_t");
        mask_ = cap - 1;
        slots_.resize(cap);
    }

    std::size_t capacity() const { return mask_ + 1; }

    /// Producer side: returns false when the ring is full.
    bool try_push(T&& value) {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head - tail_cache_ > mask_) {
            tail_cache_ = tail_.load(Atomics::ring_peer_acquire);
            // tail can only trail head from the producer's view; a fill level
            // past capacity means a second producer (or a torn shutdown).
            HTIMS_DCHECK(head - tail_cache_ <= mask_ + 1,
                         "SPSC fill level exceeds capacity");
            if (head - tail_cache_ > mask_) return false;
        }
        slots_[head & mask_].store_plain(std::move(value));
        head_.store(head + 1, Atomics::ring_publish);
        data_bell_.ring();
        return true;
    }

    /// Producer side: move as many leading elements of `items` into the ring
    /// as fit, as one publication (a single release-store however many
    /// elements transfer). Returns the number moved; elements beyond it are
    /// untouched. The copy spans at most two segments around the wrap point.
    std::size_t push_batch(std::span<T> items) {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        std::size_t free_slots = mask_ + 1 - (head - tail_cache_);
        if (free_slots < items.size()) {
            tail_cache_ = tail_.load(Atomics::ring_peer_acquire);
            HTIMS_DCHECK(head - tail_cache_ <= mask_ + 1,
                         "SPSC fill level exceeds capacity");
            free_slots = mask_ + 1 - (head - tail_cache_);
        }
        const std::size_t n = std::min(items.size(), free_slots);
        if (n == 0) return 0;
        const std::size_t start = head & mask_;
        const std::size_t first = std::min(n, mask_ + 1 - start);
        for (std::size_t i = 0; i < first; ++i)
            slots_[start + i].store_plain(std::move(items[i]));
        for (std::size_t i = first; i < n; ++i)
            slots_[i - first].store_plain(std::move(items[i]));
        head_.store(head + n, Atomics::ring_publish);
        data_bell_.ring();
        return n;
    }

    /// Consumer side: returns nullopt when the ring is empty.
    std::optional<T> try_pop() {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail == head_cache_) {
            head_cache_ = head_.load(Atomics::ring_peer_acquire);
            HTIMS_DCHECK(head_cache_ - tail <= mask_ + 1,
                         "SPSC fill level exceeds capacity");
            if (tail == head_cache_) return std::nullopt;
        }
        T value = slots_[tail & mask_].take_plain();
        tail_.store(tail + 1, Atomics::ring_publish);
        space_bell_.ring();
        return value;
    }

    /// Consumer side: move up to `out.size()` queued elements into `out`
    /// (front-first), releasing their slots with a single store. Returns the
    /// number moved — 0 when the ring is empty, less than out.size() when it
    /// drained first.
    std::size_t pop_batch(std::span<T> out) {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        std::size_t available = head_cache_ - tail;
        if (available < out.size()) {
            head_cache_ = head_.load(Atomics::ring_peer_acquire);
            HTIMS_DCHECK(head_cache_ - tail <= mask_ + 1,
                         "SPSC fill level exceeds capacity");
            available = head_cache_ - tail;
        }
        const std::size_t n = std::min(out.size(), available);
        if (n == 0) return 0;
        const std::size_t start = tail & mask_;
        const std::size_t first = std::min(n, mask_ + 1 - start);
        for (std::size_t i = 0; i < first; ++i)
            out[i] = slots_[start + i].take_plain();
        for (std::size_t i = first; i < n; ++i)
            out[i] = slots_[i - first].take_plain();
        tail_.store(tail + n, Atomics::ring_publish);
        space_bell_.ring();
        return n;
    }

    /// Consumer side: block until the ring holds at least one element (a
    /// bounded spin, then parked). The next pop then succeeds.
    void wait_for_data() {
        data_bell_.wait([this] { return has_data(); });
    }

    /// Producer side: block until the ring has at least one free slot.
    void wait_for_space() {
        space_bell_.wait([this] { return has_space(); });
    }

    /// Producer side, bounded: true once a slot is free, false if `seconds`
    /// pass with the ring still full.
    bool wait_for_space_for(double seconds) {
        return space_bell_.wait_for([this] { return has_space(); }, seconds);
    }

    /// Snapshot of the current fill level (approximate under concurrency).
    std::size_t size() const {
        return head_.load(std::memory_order_acquire) -
               tail_.load(std::memory_order_acquire);
    }

    bool empty() const { return size() == 0; }

private:
    using AtomicIndex = typename Atomics::template atomic<std::size_t>;

    // The wait conditions: the same cached-peer refresh as a pop/push, so
    // a true result is exactly "the next pop/push succeeds".
    bool has_data() {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail != head_cache_) return true;
        head_cache_ = head_.load(Atomics::ring_peer_acquire);
        return tail != head_cache_;
    }

    bool has_space() {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head - tail_cache_ <= mask_) return true;
        tail_cache_ = tail_.load(Atomics::ring_peer_acquire);
        return head - tail_cache_ <= mask_;
    }

    std::vector<typename Atomics::template var<T>> slots_;
    std::size_t mask_ = 0;
    // Producer-owned line: the published head, the producer's private view
    // of the consumer's tail, and the doorbell the producer rings for a
    // parked consumer. Consumer-owned line symmetric.
    alignas(kCacheLine) AtomicIndex head_{0};
    std::size_t tail_cache_ = 0;
    Doorbell<Atomics> data_bell_;
    alignas(kCacheLine) AtomicIndex tail_{0};
    std::size_t head_cache_ = 0;
    Doorbell<Atomics> space_bell_;
};

}  // namespace htims::pipeline
