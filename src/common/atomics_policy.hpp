// atomics_policy.hpp — the atomics policy the lock-free protocols are
// templatized over.
//
// Every hand-rolled lock-free structure in this repo (SpscRing, the ordered-
// emission turnstile, TraceBuffer's publish path) is a class template taking
// an `Atomics` policy that supplies three things:
//
//   * `atomic<T>`  — the atomic cell type (std::atomic<T> in production,
//     htims::check's model::atomic in the model-checking harness);
//   * `var<T>`     — the plain-data cell type for non-atomic shared slots
//     (a transparent zero-cost wrapper in production; a race-checked shadow
//     cell under the model checker);
//   * named memory orders — one constant per happens-before edge of each
//     protocol, documented in DESIGN.md ("Memory model"). The constants are
//     the model checker's mutation surface: each seeded mutant in
//     src/check/mutants.hpp demotes exactly one of them and the `model`
//     gate in scripts/check.sh proves the checker catches every demotion.
//     (One non-order constant rides along: the doorbell's spin budget,
//     which the model policy sets to zero.)
//
// The default policy below compiles to *exactly* the code the protocols had
// before templatization — std::atomic cells, direct member access through
// inlined accessors, the same memory_order constants at the same call sites
// — so the production path has zero codegen change (pinned by the digest
// matrix and the bench smoke stage).
#pragma once

#include <atomic>
#include <utility>

namespace htims::common {

/// Transparent wrapper for a plain (non-atomic) shared slot. The accessors
/// are trivially inlined; under the model-checking policy the same call
/// sites hit a vector-clock race detector instead.
///
/// Access discipline: `store_plain` and `take_plain` are *write* accesses
/// (take moves the value out, mutating the source), `load_plain` is a read.
template <typename T>
class PlainVar {
public:
    PlainVar() = default;
    explicit PlainVar(T v) : value_(std::move(v)) {}

    void store_plain(T v) { value_ = std::move(v); }
    const T& load_plain() const { return value_; }
    T take_plain() { return std::move(value_); }

private:
    T value_{};
};

/// The production policy: real std::atomic, transparent plain slots, and
/// the canonical memory orders of every protocol edge.
struct StdAtomics {
    template <typename T>
    using atomic = std::atomic<T>;
    template <typename T>
    using var = PlainVar<T>;

    // --- SpscRing ---------------------------------------------------------
    /// Publishing side of the ring index protocol: the producer's head store
    /// after filling slots, and the consumer's tail store after draining
    /// them. Release, so the peer's acquire load sees the slot contents.
    static constexpr std::memory_order ring_publish = std::memory_order_release;
    /// The cached-peer-index refresh: the producer re-reading tail, the
    /// consumer re-reading head. Acquire, pairing with ring_publish.
    static constexpr std::memory_order ring_peer_acquire = std::memory_order_acquire;

    // --- OrderTurnstile ---------------------------------------------------
    /// The emitting worker's turn hand-off (fetch_add on the turn counter).
    /// Release, so the next emitter's acquire observe sees every write the
    /// previous emission made to the shared report state.
    static constexpr std::memory_order turnstile_advance = std::memory_order_release;
    /// A worker observing the turn counter (the load in wait_turn and the
    /// wait re-check). Acquire, pairing with turnstile_advance.
    static constexpr std::memory_order turnstile_observe = std::memory_order_acquire;

    // --- MpmcQueue --------------------------------------------------------
    /// A producer publishing a filled dispatch slot (and a consumer
    /// recycling a drained one): the per-slot ticket store after the payload
    /// write. Release, so the next claimant's acquire load of the ticket
    /// sees the payload (producer→consumer) or the drained slot
    /// (consumer→producer).
    static constexpr std::memory_order mpmc_slot_publish = std::memory_order_release;
    /// A claimant reading a slot's ticket to decide whether the slot is
    /// ready for it. Acquire, pairing with mpmc_slot_publish in both
    /// directions of the slot's life cycle.
    static constexpr std::memory_order mpmc_slot_acquire = std::memory_order_acquire;

    // --- Doorbell (parking for SpscRing and MpmcQueue waiters) ------------
    /// A waiter arming the doorbell (fetch_or of the armed bit) before its
    /// re-check. Acq_rel; the acquire half is the load-bearing one: when the
    /// arm reads a notifier's doorbell_ring, it must also see the
    /// publication that preceded that ring, or the re-check misses it and
    /// the waiter parks on a doorbell nobody will ring again.
    static constexpr std::memory_order doorbell_arm = std::memory_order_acq_rel;
    /// A notifier's per-publication bump (fetch_add of the tick). Acq_rel;
    /// the release half carries the publication to a waiter whose later
    /// doorbell_arm reads this bump.
    static constexpr std::memory_order doorbell_ring = std::memory_order_acq_rel;
    /// Not an order: how long (microseconds) a doorbell waiter keeps
    /// re-checking its condition, with a CPU pause between checks, before it
    /// arms and parks in the kernel. Long enough to ride out a peer's next
    /// publication in a busy handoff (a frame's record burst, a batch pop),
    /// short against the idle gaps parking exists for (a paced stream's
    /// 64 ms frame period) and below a scheduler quantum.
    static constexpr unsigned doorbell_spin_us = 200;

    // --- TraceBuffer ------------------------------------------------------
    /// A writer publishing a filled span slot (the per-slot ready flag
    /// store). Release, so a snapshot's acquire sees the whole SpanEvent.
    static constexpr std::memory_order trace_publish = std::memory_order_release;
    /// A snapshot reading a slot's ready flag. Acquire, pairing with
    /// trace_publish.
    static constexpr std::memory_order trace_acquire = std::memory_order_acquire;
};

}  // namespace htims::common
