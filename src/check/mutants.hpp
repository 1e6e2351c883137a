// mutants.hpp — seeded memory-order weakenings for the soundness gate.
//
// Each mutant policy derives from the healthy ModelAtomics and demotes
// exactly one named protocol order to relaxed (one mutant instead drops
// the doorbell's notify: a lost wakeup). The `model` stage in
// scripts/check.sh runs every litmus unit against its paired mutant and
// requires the checker to report a FAILING interleaving — proving the
// harness can actually detect the class of bug it exists to prevent. (A
// demoted publish shows up as a *data race on the plain payload slot*, not
// just a wrong value, because model::var accesses are vector-clock race
// checked.)
//
// These types must never appear outside the model harness; the production
// policy lives in common/atomics_policy.hpp.
#pragma once

#include <atomic>

#include "check/model.hpp"

namespace htims::check {

/// Ring: producer's head publish (and consumer's tail publish) demoted —
/// slot contents may no longer be visible when the index is.
struct MutantRingPublishRelaxed : ModelAtomics {
    static constexpr std::memory_order ring_publish = std::memory_order_relaxed;
};

/// Ring: the cached-peer-index refresh demoted — the producer can reuse a
/// slot without having acquired the consumer's read of it (and vice versa).
struct MutantRingPeerRelaxed : ModelAtomics {
    static constexpr std::memory_order ring_peer_acquire = std::memory_order_relaxed;
};

/// Turnstile: the emitting worker's turn hand-off demoted — the next
/// emitter can see its turn without seeing the previous emission's writes.
struct MutantTurnstileAdvanceRelaxed : ModelAtomics {
    static constexpr std::memory_order turnstile_advance = std::memory_order_relaxed;
};

/// Turnstile: the waiter's observation of the turn counter demoted.
struct MutantTurnstileObserveRelaxed : ModelAtomics {
    static constexpr std::memory_order turnstile_observe = std::memory_order_relaxed;
};

/// MpmcQueue: the per-slot ticket publish demoted — a claimant can see the
/// ticket advance without the payload write (producer side) or the drain
/// (consumer side) that preceded it.
struct MutantMpmcSlotPublishRelaxed : ModelAtomics {
    static constexpr std::memory_order mpmc_slot_publish = std::memory_order_relaxed;
};

/// MpmcQueue: the claimant's ticket read demoted — the slot can be claimed
/// without acquiring the previous owner's payload traffic.
struct MutantMpmcSlotAcquireRelaxed : ModelAtomics {
    static constexpr std::memory_order mpmc_slot_acquire = std::memory_order_relaxed;
};

/// Doorbell: the waiter's arm demoted — an arm that reads a notifier's
/// ring no longer acquires the publication before it, so the re-check can
/// miss it and the waiter parks on a doorbell that has already rung.
struct MutantDoorbellArmRelaxed : ModelAtomics {
    static constexpr std::memory_order doorbell_arm = std::memory_order_relaxed;
};

/// Doorbell: the notifier's ring demoted — the ring no longer releases the
/// publication to a waiter whose arm reads it (same lost-wakeup shape).
struct MutantDoorbellRingRelaxed : ModelAtomics {
    static constexpr std::memory_order doorbell_ring = std::memory_order_relaxed;
};

/// Doorbell: the wake itself skipped — every order intact, but notify is a
/// no-op, so a waiter that armed before the ring is never released. Not an
/// order demotion: the mutant swaps in a cell type whose notify does
/// nothing, the classic lost wakeup the checker's wait model must catch.
struct MutantDoorbellSkipWake : ModelAtomics {
    template <typename T>
    using atomic = model::deaf_atomic<T>;
};

/// TraceBuffer: the per-slot ready-flag publish demoted — a snapshot can
/// copy a SpanEvent the writer has not finished filling.
struct MutantTracePublishRelaxed : ModelAtomics {
    static constexpr std::memory_order trace_publish = std::memory_order_relaxed;
};

/// TraceBuffer: the snapshot's ready-flag read demoted.
struct MutantTraceAcquireRelaxed : ModelAtomics {
    static constexpr std::memory_order trace_acquire = std::memory_order_relaxed;
};

}  // namespace htims::check
