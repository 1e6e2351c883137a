// test_model.cpp — the model-checking harness and the protocol litmus gate.
//
// Two halves:
//   * engine self-tests — the checker must find known-bad behaviors
//     (store-buffer reordering under relaxed, data races, deadlock, lost
//     wakeups, unjoined threads) and must prove known-good ones (the same
//     store-buffer program under seq_cst);
//   * the litmus registry — every healthy protocol unit passes, every
//     seeded memory-order mutant is caught. The gtest run uses a small
//     preemption bound so tier-1/ASan/TSan builds stay fast; the `model`
//     stage of scripts/check.sh runs the same units *unbounded* through
//     tools/modelcheck for the exhaustive guarantee.
#include <gtest/gtest.h>

#include "check/litmus.hpp"
#include "check/model.hpp"

namespace hc = htims::check;

namespace {

hc::Options bounded_options() {
    hc::Options opt;
    // Every seeded mutant needs at most 2 preemptions to surface; 4 leaves
    // headroom while keeping the slowest unit itself sub-second natively.
    opt.preemption_bound = 4;
    return opt;
}

}  // namespace

// ---- engine self-tests ----------------------------------------------------

TEST(ModelEngine, StoreBufferReorderingFoundUnderRelaxed) {
    // Dekker's handshake with relaxed atomics: both loads may miss both
    // stores (store-buffer behavior). The checker must find it even though
    // x86 hardware would essentially never show it.
    const auto result = hc::check(bounded_options(), [] {
        hc::model::atomic<int> x{0};
        hc::model::atomic<int> y{0};
        int r1 = -1;
        hc::thread t([&] {
            x.store(1, std::memory_order_relaxed);
            r1 = y.load(std::memory_order_relaxed);
        });
        y.store(1, std::memory_order_relaxed);
        const int r2 = x.load(std::memory_order_relaxed);
        t.join();
        MODEL_ASSERT(!(r1 == 0 && r2 == 0));
    });
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.failure.find("MODEL_ASSERT"), std::string::npos);
    EXPECT_NE(result.failure.find("interleaving"), std::string::npos);
}

TEST(ModelEngine, StoreBufferForbiddenUnderSeqCst) {
    const auto result = hc::check(bounded_options(), [] {
        hc::model::atomic<int> x{0};
        hc::model::atomic<int> y{0};
        int r1 = -1;
        hc::thread t([&] {
            x.store(1);
            r1 = y.load();
        });
        y.store(1);
        const int r2 = x.load();
        t.join();
        MODEL_ASSERT(!(r1 == 0 && r2 == 0));
    });
    EXPECT_TRUE(static_cast<bool>(result));
    EXPECT_GT(result.executions, 1u);  // it actually explored alternatives
}

TEST(ModelEngine, MessagePassingRaceFoundUnderRelaxed) {
    // Classic message-passing: relaxed flag publish makes the payload read
    // a data race (caught by the vector-clock check on model::var).
    const auto result = hc::check(bounded_options(), [] {
        hc::model::atomic<int> flag{0};
        hc::model::var<int> payload;
        hc::thread t([&] {
            payload.store_plain(42);
            flag.store(1, std::memory_order_relaxed);
        });
        if (flag.load(std::memory_order_relaxed) == 1) {
            const int v = payload.load_plain();
            MODEL_ASSERT(v == 42);
        }
        t.join();
    });
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.failure.find("data race"), std::string::npos);
}

TEST(ModelEngine, MessagePassingCleanUnderReleaseAcquire) {
    const auto result = hc::check(bounded_options(), [] {
        hc::model::atomic<int> flag{0};
        hc::model::var<int> payload;
        hc::thread t([&] {
            payload.store_plain(42);
            flag.store(1, std::memory_order_release);
        });
        if (flag.load(std::memory_order_acquire) == 1)
            MODEL_ASSERT(payload.load_plain() == 42);
        t.join();
    });
    EXPECT_TRUE(static_cast<bool>(result));
}

TEST(ModelEngine, DeadlockDetected) {
    const auto result = hc::check(bounded_options(), [] {
        hc::model::atomic<int> never{0};
        never.wait(0);  // no other thread exists: no store can wake this
    });
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.failure.find("deadlock"), std::string::npos);
}

TEST(ModelEngine, UnjoinedThreadDetected) {
    const auto result = hc::check(bounded_options(), [] {
        hc::thread t([] {});
        // t goes out of scope joinable
    });
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.failure.find("without join"), std::string::npos);
}

TEST(ModelEngine, AtomicWaitWakesOnValueChange) {
    const auto result = hc::check(bounded_options(), [] {
        hc::model::atomic<std::uint64_t> gate{0};
        hc::thread t([&] {
            gate.store(7, std::memory_order_release);
            gate.notify_all();
        });
        std::uint64_t cur = gate.load(std::memory_order_acquire);
        if (cur == 0) {
            gate.wait(0, std::memory_order_acquire);
            cur = gate.load(std::memory_order_acquire);
        }
        MODEL_ASSERT(cur == 7);
        t.join();
    });
    EXPECT_TRUE(static_cast<bool>(result));
}

TEST(ModelEngine, LostWakeupReportedAsDeadlock) {
    // The value changes but nobody notifies: a waiter that blocked before
    // the store must stay blocked. Only interleavings where the wait starts
    // after the store escape, so the checker must find the deadlock.
    const auto result = hc::check(bounded_options(), [] {
        hc::model::atomic<std::uint64_t> gate{0};
        hc::thread t([&] { gate.store(1, std::memory_order_release); });
        gate.wait(0, std::memory_order_acquire);
        t.join();
    });
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.failure.find("deadlock"), std::string::npos);
    EXPECT_NE(result.failure.find("wake"), std::string::npos);
}

TEST(ModelEngine, NotifyBeforeTheWaitBlocksDoesNotWakeIt) {
    // A notify only releases waiters already blocked: with no value change
    // after it, a notify that lands before the wait is lost (the waiter
    // then blocks on an unchanged value), which the checker must report.
    const auto result = hc::check(bounded_options(), [] {
        hc::model::atomic<std::uint64_t> gate{0};
        hc::thread t([&] { gate.notify_all(); });
        gate.wait(0, std::memory_order_acquire);
        t.join();
    });
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.failure.find("deadlock"), std::string::npos);
}

TEST(ModelEngine, BitwiseReadModifyWritesReturnThePriorValue) {
    const auto result = hc::check(bounded_options(), [] {
        hc::model::atomic<std::uint32_t> word{4};
        hc::thread t([&] { word.fetch_add(8, std::memory_order_acq_rel); });
        const std::uint32_t before_or = word.fetch_or(1, std::memory_order_acq_rel);
        MODEL_ASSERT(before_or == 4 || before_or == 12);
        t.join();
        MODEL_ASSERT(word.fetch_and(~std::uint32_t{1}) == 13);
        MODEL_ASSERT(word.fetch_sub(12) == 12);
        MODEL_ASSERT(word.load() == 0);
    });
    EXPECT_TRUE(static_cast<bool>(result));
}

// ---- the protocol litmus gate ---------------------------------------------

TEST(ModelLitmus, HealthyProtocolsPass) {
    for (const auto& unit : hc::litmus_units()) {
        SCOPED_TRACE(unit.name);
        auto opt = bounded_options();
        opt.preemption_bound = hc::litmus_effective_bound(
            opt.preemption_bound, unit.preemption_cap);
        const auto result = hc::check(opt, unit.healthy);
        EXPECT_TRUE(result.ok) << unit.name << ": " << result.failure;
        EXPECT_TRUE(result.complete) << unit.name << ": exploration hit a cap";
        EXPECT_GT(result.executions, 1u) << unit.name;
    }
}

TEST(ModelLitmus, SeededMutantsAreCaught) {
    for (const auto& unit : hc::litmus_units()) {
        if (!unit.mutated) continue;
        SCOPED_TRACE(unit.name + " / " + unit.mutant);
        auto opt = bounded_options();
        opt.preemption_bound = hc::litmus_effective_bound(
            opt.preemption_bound, unit.preemption_cap);
        const auto result = hc::check(opt, unit.mutated);
        EXPECT_FALSE(result.ok)
            << "mutant " << unit.mutant << " was NOT caught by " << unit.name;
        EXPECT_FALSE(result.failure.empty());
    }
}
