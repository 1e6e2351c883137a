// mpmc_queue.hpp — bounded lock-free multi-producer/multi-consumer queue.
//
// The fleet dispatch layer: N stream consumers enqueue closed frames, M
// shared decode workers dequeue them. This is the bounded-array variant of
// the Michael–Scott two-ended queue idiom — instead of linked nodes with
// hazard-pointer reclamation, each slot carries a monotonically advancing
// *ticket* that encodes whose turn the slot is (Vyukov's bounded MPMC):
//
//   * a slot whose ticket equals the head position is free for the producer
//     that wins the head CAS; after writing the payload it publishes by
//     storing ticket = position + 1;
//   * a slot whose ticket equals position + 1 is full for the consumer that
//     wins the tail CAS; after moving the payload out it recycles the slot
//     by storing ticket = position + capacity (its next producer turn).
//
// The head/tail counters only arbitrate *which* thread owns a slot (their
// CAS is relaxed); the per-slot ticket carries the happens-before edge for
// the payload in both directions — producer→consumer (the payload write
// precedes the release publish, the consumer's acquire ticket load precedes
// the payload move-out) and consumer→producer (the move-out precedes the
// release recycle, the producer's acquire load precedes the slot reuse).
// The two named orders (`mpmc_slot_publish`/`mpmc_slot_acquire` on the
// atomics policy) are that edge; demoting either is a data race on the
// payload slot, which is exactly how the seeded mutants in
// src/check/mutants.hpp are caught. Litmus units `mpmc_*` in
// src/check/litmus.hpp verify the protocol exhaustively; the happens-before
// argument lives in DESIGN.md ("Memory model").
//
// try_push fails on full and try_pop on empty; neither blocks. Waiting is
// separate: wait_for_slot() parks a pusher until a slot may be free and
// wait_for_item() parks a popper until an element may be ready (or the
// caller's stop condition holds), each on a Doorbell (pipeline/doorbell.hpp)
// that every successful pop or push rings. The fleet layer turns "full"
// into consumer-side backpressure (which in turn fills that stream's SPSC
// ring and stalls its producer) and "empty" into a parked decode worker;
// wake_item_waiters() re-rings the pop side when a stop condition changes
// without a push (the last stream consumer leaving). Destruction is not
// synchronized — join every producer and consumer first (undrained
// payloads are destroyed with the slots).
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/aligned_buffer.hpp"
#include "common/atomics_policy.hpp"
#include "common/error.hpp"
#include "pipeline/doorbell.hpp"

namespace htims::pipeline {

/// Bounded MPMC queue of movable elements. Any number of threads may call
/// try_push and any number may call try_pop, concurrently.
template <typename T, typename Atomics = common::StdAtomics>
class MpmcQueue {
public:
    /// Largest accepted capacity: tickets must stay a small signed distance
    /// from positions, so keep the capacity far away from the wrap point.
    static constexpr std::size_t kMaxCapacity =
        (std::numeric_limits<std::size_t>::max() >> 2) + 1;

    /// `capacity` is rounded up to a power of two (minimum 2).
    explicit MpmcQueue(std::size_t capacity) {
        if (capacity > kMaxCapacity)
            throw ConfigError("mpmc capacity " + std::to_string(capacity) +
                              " exceeds the addressable maximum");
        std::size_t cap = 2;
        while (cap < capacity) cap <<= 1;
        mask_ = cap - 1;
        slots_ = std::make_unique<Slot[]>(cap);
        // Single-threaded setup: slot i's first producer turn is position i.
        for (std::size_t i = 0; i < cap; ++i)
            slots_[i].ticket.store(i, std::memory_order_relaxed);
    }

    std::size_t capacity() const { return mask_ + 1; }

    /// Returns false when the queue is full. On false, `value` is untouched.
    bool try_push(T&& value) {
        std::size_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            Slot& slot = slots_[pos & mask_];
            const std::size_t ticket = slot.ticket.load(Atomics::mpmc_slot_acquire);
            const auto turn = static_cast<std::ptrdiff_t>(ticket - pos);
            if (turn == 0) {
                // The slot is free at this position; claim it. The CAS is
                // relaxed — it only arbitrates ownership, the ticket stores
                // carry the payload ordering.
                if (head_.compare_exchange_weak(pos, pos + 1,
                                                std::memory_order_relaxed)) {
                    slot.value.store_plain(std::move(value));
                    slot.ticket.store(pos + 1, Atomics::mpmc_slot_publish);
                    item_bell_.ring();
                    return true;
                }
            } else if (turn < 0) {
                // Ticket behind the position: the slot still holds an
                // unconsumed payload a full lap back — the queue is full.
                return false;
            } else {
                // Another producer claimed this position; catch up.
                pos = head_.load(std::memory_order_relaxed);
            }
        }
    }

    /// Returns nullopt when the queue is empty.
    std::optional<T> try_pop() {
        std::size_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            Slot& slot = slots_[pos & mask_];
            const std::size_t ticket = slot.ticket.load(Atomics::mpmc_slot_acquire);
            const auto turn = static_cast<std::ptrdiff_t>(ticket - (pos + 1));
            if (turn == 0) {
                if (tail_.compare_exchange_weak(pos, pos + 1,
                                                std::memory_order_relaxed)) {
                    T value = slot.value.take_plain();
                    // Recycle: the slot's next producer turn is one lap on.
                    slot.ticket.store(pos + mask_ + 1, Atomics::mpmc_slot_publish);
                    slot_bell_.ring();
                    return value;
                }
            } else if (turn < 0) {
                // No payload published at this position yet — empty.
                return std::nullopt;
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
    }

    /// Approximate fill level (racy snapshot, monitoring only). Reading
    /// tail first keeps the difference non-negative under concurrency.
    std::size_t size() const {
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        const std::size_t head = head_.load(std::memory_order_acquire);
        return head - tail;
    }

    bool empty() const { return size() == 0; }

    /// Pop side: block until a try_pop may find an element or `stop()`
    /// holds (a bounded spin, then parked). A competing popper can still
    /// win the element, so callers loop: try_pop, else wait_for_item.
    template <typename Stop>
    void wait_for_item(Stop&& stop) {
        item_bell_.wait([&] { return item_ready() || stop(); });
    }

    /// Push side: block until a try_push may find a free slot.
    void wait_for_slot() {
        slot_bell_.wait([this] { return slot_ready(); });
    }

    /// Wake every thread parked in wait_for_item so it re-evaluates its
    /// stop condition. Call after changing what that condition reads.
    void wake_item_waiters() { item_bell_.ring(); }

private:
    // The wait conditions read the ticket a try_pop/try_push would read
    // first: "not empty" / "not full" at the current position. A stale
    // position reads a slot that has moved on, which also returns true —
    // the caller's retry then reloads the position.
    bool item_ready() const {
        const std::size_t pos = tail_.load(std::memory_order_relaxed);
        const std::size_t ticket =
            slots_[pos & mask_].ticket.load(Atomics::mpmc_slot_acquire);
        return static_cast<std::ptrdiff_t>(ticket - (pos + 1)) >= 0;
    }

    bool slot_ready() const {
        const std::size_t pos = head_.load(std::memory_order_relaxed);
        const std::size_t ticket =
            slots_[pos & mask_].ticket.load(Atomics::mpmc_slot_acquire);
        return static_cast<std::ptrdiff_t>(ticket - pos) >= 0;
    }

    struct Slot {
        typename Atomics::template atomic<std::size_t> ticket{0};
        typename Atomics::template var<T> value;
    };

    std::unique_ptr<Slot[]> slots_;
    std::size_t mask_ = 0;
    // Producers and consumers each contend on their own counter line.
    // Each side rings the doorbell the other side parks on.
    alignas(kCacheLine) typename Atomics::template atomic<std::size_t> head_{0};
    Doorbell<Atomics> item_bell_;
    alignas(kCacheLine) typename Atomics::template atomic<std::size_t> tail_{0};
    Doorbell<Atomics> slot_bell_;
};

}  // namespace htims::pipeline
