// doorbell.hpp — park/wake protocol for threads waiting on a lock-free
// handoff.
//
// SpscRing and MpmcQueue never block by themselves; a thread that finds the
// ring empty (or full) has to wait for its peer's next publication. A
// yield-spin there burns a whole core per idle thread, so each wait
// direction gets a Doorbell: the waiter re-checks its condition for a
// bounded time, then parks in the kernel on the doorbell word through
// C++20 atomic wait/notify, and the publishing side rings the doorbell
// after every publication.
//
// The protocol uses atomic read-modify-writes only — no fences, no
// Dekker-style flag-then-check on two locations — because RMWs on one word
// are totally ordered and always read the latest value:
//
//   * word layout: bit 0 is the "armed" bit (some waiter may be parked),
//     the remaining bits are a publication tick;
//   * waiter: `armed = fetch_or(kArmed) | kArmed` (doorbell_arm), re-check
//     the condition, then `wait(armed)`;
//   * notifier: after publishing, `prev = fetch_add(kTick)` (doorbell_ring);
//     only when `prev` has the armed bit does it clear the bit and
//     notify_all.
//
// Why no wakeup is lost: the waiter's arm and the notifier's ring are RMWs
// on the same word, so one comes first in its modification order. If the
// ring comes first, the arm reads it, and the acquire half of the arm
// synchronizes with the release half of the ring: the re-check sees the
// publication and the waiter never parks. If the arm comes first, the ring
// reads the armed bit and notifies; and because the ring changed the word
// away from `armed`, a waiter that reaches wait() only after the notify
// returns immediately instead of sleeping. Clearing the bit is what keeps
// a saturated handoff free of syscalls: the word stays in the notifier's
// cache and the ring is one uncontended fetch_add until a waiter parks
// again. A waiter that arms between a notifier's ring and its clear loses
// its bit, but that notifier's notify_all then finds it (or its wait()
// sees a changed word), and its re-check already saw the publication.
//
// The tick is 31 bits wide, so a waiter could only miss a ring if exactly
// 2^31 publications landed between its arm and its wait() — not a
// reachable schedule. The word is 32 bits so libstdc++ parks on it with a
// direct futex.
//
// Templatized over the atomics policy (common/atomics_policy.hpp): the
// named orders doorbell_arm/doorbell_ring are the protocol edges, and
// doorbell_spin_us bounds the spin before parking (0 under the model
// checker, so every wait takes the park path). Litmus units `*_park_*` in
// src/check/litmus.hpp verify the protocol over every interleaving,
// including lost wakeups: the model wakes a parked waiter only on a notify.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/atomics_policy.hpp"
#include "common/timer.hpp"

namespace htims::pipeline {

/// One wait direction of a handoff: any number of waiters, any number of
/// notifiers. Waiters pass their wake-up condition as a callable; it must
/// become true only through publications that the notifiers follow with
/// ring().
template <typename Atomics = common::StdAtomics>
class Doorbell {
public:
    /// Notifier: call once after every publication a waiter's condition
    /// reads. One uncontended fetch_add unless a waiter has armed.
    void ring() {
        const std::uint32_t prev = word_.fetch_add(kTick, Atomics::doorbell_ring);
        if ((prev & kArmed) != 0) {
            word_.fetch_and(~kArmed, std::memory_order_relaxed);
            word_.notify_all();
        }
    }

    /// Waiter: return once `ready()` holds — a bounded spin, then parked on
    /// the doorbell between re-checks.
    template <typename Ready>
    void wait(Ready&& ready) {
        if (spin(ready)) return;
        for (;;) {
            const std::uint32_t armed =
                word_.fetch_or(kArmed, Atomics::doorbell_arm) | kArmed;
            if (ready()) return;
            word_.wait(armed, std::memory_order_relaxed);
        }
    }

    /// Waiter with a deadline: true once `ready()` holds, false if
    /// `seconds` pass first. Spins like wait(), then sleeps in
    /// kTimedSlice_s steps (no notifier needs to know about it).
    template <typename Ready>
    bool wait_for(Ready&& ready, double seconds) {
        WallTimer waited;
        if (spin(ready)) return true;
        for (;;) {
            if (ready()) return true;
            const double left = seconds - waited.seconds();
            if (left <= 0.0) return false;
            std::this_thread::sleep_for(std::chrono::duration<double>(
                left < kTimedSlice_s ? left : kTimedSlice_s));
        }
    }

private:
    /// Sleep granularity of a bounded (timed) wait: atomic::wait has no
    /// timeout, so a deadline wait polls its condition at this period
    /// instead of parking on the word.
    static constexpr double kTimedSlice_s = 100e-6;

    /// One CPU pause: the body of the bounded spin.
    static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    /// The bounded spin: true as soon as `ready()` holds, false once
    /// doorbell_spin_us has passed (the clock is read every 32 checks).
    template <typename Ready>
    static bool spin(Ready& ready) {
        if constexpr (Atomics::doorbell_spin_us > 0) {
            WallTimer spun;
            do {
                for (int i = 0; i < 32; ++i) {
                    if (ready()) return true;
                    cpu_relax();
                }
            } while (spun.seconds() * 1e6 < Atomics::doorbell_spin_us);
        }
        return false;
    }

    static constexpr std::uint32_t kArmed = 1;
    static constexpr std::uint32_t kTick = 2;

    typename Atomics::template atomic<std::uint32_t> word_{0};
};

}  // namespace htims::pipeline
