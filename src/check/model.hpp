// model.hpp — deterministic exhaustive model checker for small concurrent
// programs under a simulated C++11 memory model.
//
// check(options, body) runs `body` — a closure that creates model::atomic /
// model::var cells, spawns check::thread workers, and asserts invariants
// with MODEL_ASSERT — once per distinct behavior: a DFS over both *schedule*
// choices (which runnable thread performs its next visible operation) and
// *read-from* choices (which store in a location's modification order a load
// observes, as permitted by the simulated memory model). Threads are real OS
// threads driven cooperatively by a turn token, so exactly one runs at a
// time and every interleaving is replayable; the exploration is pruned with
// Godefroid-style sleep sets and an optional preemption bound.
//
// The simulated memory model is operational, store-buffer style:
//   * every atomic store is appended to its location's modification order
//     and stamped with the storing thread's vector clock;
//   * a load may read any store that is not stale for the loading thread
//     (per-thread views track the newest store each thread is obliged to
//     see), so relaxed loads really do return old values — bugs that x86's
//     strong hardware ordering hides are still exercised;
//   * release stores carry the thread's dependency clock as a payload;
//     acquire loads join the payload of the store they read (and of its
//     release sequence head), creating the happens-before edge;
//   * seq_cst is approximated per-location (an SC access must read from or
//     overwrite the latest SC store of that location) — sound for the
//     protocols here, which never rely on cross-location SC total order.
//
// Plain (non-atomic) shared cells are model::var<T>: each access checks for
// a data race against every concurrent access using the same vector clocks,
// so a demoted release publish is caught as a *race on the payload slot*,
// not just as a wrong value.
//
// Failure modes detected: MODEL_ASSERT violations, data races on model::var,
// deadlock (no thread enabled, not all finished), destruction of a joinable
// check::thread, and a per-execution step cap (runaway loops). Every failure
// carries the full interleaving trace that produced it.
//
// Limitations (documented, deliberate):
//   * modification order is append-only in execution order — stores are not
//     reordered after the fact, an under-approximation of the full C++11
//     coherence lattice (it cannot manufacture behaviors the real model
//     forbids, it can only miss some exotic ones);
//   * atomic wait(old) first loads (with full read-from branching) and
//     returns at once if it read a value != old, or if the latest store is
//     != old (the kernel's futex compare sees the current word, so a wait
//     never sleeps on a value that was already overwritten); otherwise the
//     waiter blocks, and becomes runnable again only once BOTH a notify_one/all on
//     the same location was performed after it blocked AND some store it
//     may read has a value != old. A missing notify (a lost wakeup) thus
//     leaves the waiter blocked and surfaces as the deadlock report.
//     Spurious wake-ups are not modeled (a sound omission for protocols
//     that re-check after waking); notify_one wakes one blocked waiter,
//     chosen by a branching read-from-style choice;
//   * atomics are capped at 8 trivially-copyable bytes (everything the
//     production protocols use).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

namespace htims::check {

/// Thrown inside a model thread to unwind it after a failure was recorded
/// (or when the exploration is winding down an aborted execution). User
/// code must let it propagate.
struct ModelAbort {};

/// Exploration knobs. The defaults explore exhaustively with a generous
/// step cap; tests that only need a smoke pass can set preemption_bound.
struct Options {
    /// Max preemptions (context switches away from a runnable thread) per
    /// execution; -1 = unbounded (full exhaustive exploration).
    int preemption_bound = -1;
    /// Stop after this many executions (0 = unlimited). If the cap fires,
    /// Result::complete is false.
    std::uint64_t max_executions = 0;
    /// Per-execution step cap: a single interleaving longer than this is
    /// reported as a failure (runaway loop in the litmus body).
    std::uint64_t max_steps = 20000;
    /// Print each failure trace to stderr as it is found (the Result carries
    /// it either way).
    bool verbose = false;
};

/// Exploration outcome. `ok` means no failing interleaving was found;
/// `complete` means the search space was exhausted (false when
/// max_executions fired). A trustworthy PASS is `ok && complete`.
struct Result {
    bool ok = false;
    bool complete = false;
    std::uint64_t executions = 0;  ///< distinct interleavings explored
    std::uint64_t steps = 0;       ///< total scheduled operations
    std::string failure;           ///< human-readable failure + trace
    explicit operator bool() const { return ok && complete; }
};

/// Explore every interleaving of `body`. The body runs on the calling
/// thread (as model thread 0) once per explored execution; it must be
/// re-runnable (all state created inside the closure).
Result check(const Options& options, const std::function<void()>& body);

namespace detail {

/// Narrow static interface between the user-facing cell/thread wrappers and
/// the execution engine (a thread_local current-execution pointer behind
/// the scenes). All value traffic is via uint64 bit-patterns.
struct ExecHandle {
    static std::size_t reg_atomic(std::uint64_t init);
    static std::size_t reg_plain();
    static std::uint64_t atomic_load(std::size_t loc, int mo);
    static void atomic_store(std::size_t loc, std::uint64_t v, int mo);
    static std::uint64_t rmw(std::size_t loc, std::uint64_t operand, int op,
                             int mo);
    static bool cas(std::size_t loc, std::uint64_t& expected,
                    std::uint64_t desired, int mo);
    static void atomic_wait(std::size_t loc, std::uint64_t old, int mo);
    static void atomic_notify(std::size_t loc, bool all);
    static void plain_read(std::size_t loc);
    static void plain_write(std::size_t loc);
    static int spawn(std::function<void()> fn);
    static void join(int tid);
    [[noreturn]] static void fail(const std::string& msg);
};

template <typename T>
std::uint64_t to_bits(T v) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                  "model atomics hold trivially-copyable values of <= 8 bytes");
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    return bits;
}

template <typename T>
T from_bits(std::uint64_t bits) {
    T v{};
    std::memcpy(&v, &bits, sizeof(T));
    return v;
}

/// std::memory_order carried as int through the narrow interface.
inline int mo_int(std::memory_order mo) { return static_cast<int>(mo); }

/// The read-modify-write arithmetic carried through ExecHandle::rmw.
enum RmwOp : int { kRmwAdd = 0, kRmwOr = 1, kRmwAnd = 2 };

}  // namespace detail

namespace model {

/// Shadow std::atomic<T>. Must be created inside a running check() body;
/// every operation is a schedule point with full read-from branching.
template <typename T>
class atomic {
public:
    atomic() : atomic(T{}) {}
    explicit atomic(T init)
        : loc_(detail::ExecHandle::reg_atomic(detail::to_bits(init))) {}

    atomic(const atomic&) = delete;
    atomic& operator=(const atomic&) = delete;

    T load(std::memory_order mo = std::memory_order_seq_cst) const {
        return detail::from_bits<T>(
            detail::ExecHandle::atomic_load(loc_, detail::mo_int(mo)));
    }

    void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
        detail::ExecHandle::atomic_store(loc_, detail::to_bits(v),
                                         detail::mo_int(mo));
    }

    T fetch_add(T delta, std::memory_order mo = std::memory_order_seq_cst) {
        return rmw(delta, detail::kRmwAdd, mo);
    }

    T fetch_sub(T delta, std::memory_order mo = std::memory_order_seq_cst) {
        return rmw(static_cast<T>(T{0} - delta), detail::kRmwAdd, mo);
    }

    T fetch_or(T bits, std::memory_order mo = std::memory_order_seq_cst) {
        return rmw(bits, detail::kRmwOr, mo);
    }

    T fetch_and(T bits, std::memory_order mo = std::memory_order_seq_cst) {
        return rmw(bits, detail::kRmwAnd, mo);
    }

    bool compare_exchange_weak(T& expected, T desired,
                               std::memory_order mo = std::memory_order_seq_cst) {
        // No spurious failure in the model: weak == strong. Spurious failure
        // only adds schedules in which the surrounding retry loop runs again,
        // which the schedule explorer already covers via interleaving.
        return compare_exchange_strong(expected, desired, mo);
    }

    bool compare_exchange_strong(T& expected, T desired,
                                 std::memory_order mo = std::memory_order_seq_cst) {
        std::uint64_t exp = detail::to_bits(expected);
        const bool done = detail::ExecHandle::cas(loc_, exp, detail::to_bits(desired),
                                                  detail::mo_int(mo));
        expected = detail::from_bits<T>(exp);
        return done;
    }

    /// Returns at once if the load reads a value != old; otherwise blocks
    /// (in model time) until a later notify AND a readable value != old.
    void wait(T old, std::memory_order mo = std::memory_order_seq_cst) const {
        detail::ExecHandle::atomic_wait(loc_, detail::to_bits(old),
                                        detail::mo_int(mo));
    }

    /// Schedule points: which waiters a notify finds blocked depends on
    /// where it lands in the interleaving. See the header comment.
    void notify_one() { detail::ExecHandle::atomic_notify(loc_, false); }
    void notify_all() { detail::ExecHandle::atomic_notify(loc_, true); }

private:
    T rmw(T operand, detail::RmwOp op, std::memory_order mo) {
        static_assert(std::is_integral_v<T>,
                      "read-modify-writes are modeled for integral types only");
        return detail::from_bits<T>(detail::ExecHandle::rmw(
            loc_, detail::to_bits(operand), op, detail::mo_int(mo)));
    }

    std::size_t loc_;
};

/// A model atomic whose notify_one/notify_all do nothing: the lost-wakeup
/// mutant's cell type (src/check/mutants.hpp). A waiter parked on it can
/// only be released by a notify that never comes.
template <typename T>
class deaf_atomic : public atomic<T> {
public:
    using atomic<T>::atomic;
    void notify_one() {}
    void notify_all() {}
};

/// Shadow plain-data cell: the model policy's `var<T>`. Accesses are race-
/// checked against every concurrent access but are NOT schedule points —
/// the race check is interleaving-insensitive (vector clocks), so skipping
/// the scheduler keeps the state space small without losing detection.
template <typename T>
class var {
public:
    var() : loc_(detail::ExecHandle::reg_plain()) {}
    explicit var(T v) : value_(std::move(v)), loc_(detail::ExecHandle::reg_plain()) {}

    var(var&& other) noexcept
        : value_(std::move(other.value_)),
          loc_(detail::ExecHandle::reg_plain()) {}
    var& operator=(var&& other) noexcept {
        value_ = std::move(other.value_);
        return *this;
    }
    var(const var&) = delete;
    var& operator=(const var&) = delete;

    void store_plain(T v) {
        detail::ExecHandle::plain_write(loc_);
        value_ = std::move(v);
    }
    const T& load_plain() const {
        detail::ExecHandle::plain_read(loc_);
        return value_;
    }
    T take_plain() {
        detail::ExecHandle::plain_write(loc_);
        return std::move(value_);
    }

private:
    T value_{};
    std::size_t loc_;
};

}  // namespace model

/// Model thread: spawn-on-construction, must be joined before destruction
/// (a dtor on a joinable thread is reported as a failure, mirroring
/// std::thread's terminate()).
class thread {
public:
    thread() = default;
    explicit thread(std::function<void()> fn)
        : tid_(detail::ExecHandle::spawn(std::move(fn))) {}

    thread(thread&& other) noexcept : tid_(other.tid_) { other.tid_ = -1; }
    thread& operator=(thread&& other) noexcept {
        std::swap(tid_, other.tid_);
        return *this;
    }
    thread(const thread&) = delete;
    thread& operator=(const thread&) = delete;

    bool joinable() const { return tid_ >= 0; }

    void join() {
        detail::ExecHandle::join(tid_);
        tid_ = -1;
    }

    ~thread() noexcept(false) {
        if (tid_ < 0) return;
        // During the unwind of an already-failed execution (ModelAbort in
        // flight) a joinable wrapper is expected — the engine winds the
        // spawned thread down itself; throwing here would terminate().
        if (std::uncaught_exceptions() > 0) return;
        detail::ExecHandle::fail("model thread destroyed without join");
    }

private:
    int tid_ = -1;
};

/// The model-checking atomics policy: same named orders as
/// common::StdAtomics (the canonical protocol edges), shadow cell types.
/// Mutants in src/check/mutants.hpp derive from this and demote one order.
struct ModelAtomics {
    template <typename T>
    using atomic = model::atomic<T>;
    template <typename T>
    using var = model::var<T>;

    static constexpr std::memory_order ring_publish = std::memory_order_release;
    static constexpr std::memory_order ring_peer_acquire = std::memory_order_acquire;
    static constexpr std::memory_order turnstile_advance = std::memory_order_release;
    static constexpr std::memory_order turnstile_observe = std::memory_order_acquire;
    static constexpr std::memory_order mpmc_slot_publish = std::memory_order_release;
    static constexpr std::memory_order mpmc_slot_acquire = std::memory_order_acquire;
    static constexpr std::memory_order doorbell_arm = std::memory_order_acq_rel;
    static constexpr std::memory_order doorbell_ring = std::memory_order_acq_rel;
    /// No spin under the model: every doorbell wait takes the park path,
    /// which is the one with a protocol to check (a spin only adds
    /// schedule points that re-read the same condition).
    static constexpr unsigned doorbell_spin_us = 0;
    static constexpr std::memory_order trace_publish = std::memory_order_release;
    static constexpr std::memory_order trace_acquire = std::memory_order_acquire;
};

}  // namespace htims::check

/// Assert an invariant inside a model-checked body. On violation the
/// current execution is aborted and reported with its full interleaving.
#define MODEL_ASSERT(cond)                                                   \
    do {                                                                     \
        if (!(cond))                                                         \
            ::htims::check::detail::ExecHandle::fail(                        \
                "MODEL_ASSERT failed: " #cond);                              \
    } while (0)
