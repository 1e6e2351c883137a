// test_race.cpp — concurrency stress tests for the TSan gate.
//
// Each test drives one shared-state component hard enough that an ordering
// bug has a realistic chance of being interleaved into view, and asserts the
// sequential outcome so the suite is also meaningful without TSan. The
// check.sh `tsan` stage runs this binary (and the rest of the suite) under
// `-fsanitize=thread`, where any unsynchronized access aborts the run —
// these tests exist to give TSan the traffic patterns worth watching:
// capacity-boundary ring handoff (single-element and batch), grain-boundary
// parallel_for writes, exporters snapshotting metrics mid-flight, and
// orchestrator start/stop — synchronous, with one overlapped-decode worker,
// and with several workers emitting through the ordered turnstile — plus
// park/wake storms on the blocking waits of the ring and the dispatch queue,
// and a CPU-time check that an idle waiter sleeps rather than spins.
#include <gtest/gtest.h>

#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "pipeline/fleet.hpp"
#include "pipeline/hybrid.hpp"
#include "pipeline/mpmc_queue.hpp"
#include "pipeline/spsc_ring.hpp"
#include "prs/oversampled.hpp"
#include "telemetry/registry.hpp"

namespace {

using htims::ThreadPool;
using htims::pipeline::SpscRing;

// ------------------------------------------------------------ SpscRing ----

// Push a known sequence through a ring at a given capacity while a consumer
// drains it; FIFO order and completeness prove neither side ever observed a
// slot out of turn. Tiny capacities keep the ring permanently at the
// full/empty boundaries where the acquire/release pairing actually matters.
void spsc_roundtrip(std::size_t capacity, int count) {
    SpscRing<int> ring(capacity);
    std::vector<int> received;
    received.reserve(static_cast<std::size_t>(count));

    std::thread consumer([&] {
        while (static_cast<int>(received.size()) < count) {
            if (auto v = ring.try_pop())
                received.push_back(*v);
            else
                std::this_thread::yield();
        }
    });
    for (int i = 0; i < count; ++i) {
        while (!ring.try_push(int{i})) std::this_thread::yield();
    }
    consumer.join();

    ASSERT_EQ(received.size(), static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
    EXPECT_TRUE(ring.empty());
}

TEST(RaceSpscRing, MinimalCapacityStaysFifoUnderContention) {
    spsc_roundtrip(2, 20000);
}

TEST(RaceSpscRing, NonPowerOfTwoCapacityStaysFifoUnderContention) {
    spsc_roundtrip(3, 20000);  // rounds up to 4
}

TEST(RaceSpscRing, LargeCapacityStaysFifoUnderContention) {
    spsc_roundtrip(256, 50000);
}

TEST(RaceSpscRing, BatchHandoffStaysFifoUnderContention) {
    // Same FIFO/completeness contract as spsc_roundtrip, but both sides move
    // whole batches, so TSan watches the one-release-store-per-batch publish
    // and the cached-peer-index refresh under real contention. The shallow
    // ring forces constant partial transfers at the full/empty boundaries.
    constexpr std::uint32_t kTotal = 100000;
    SpscRing<std::uint32_t> ring(8);
    std::thread producer([&] {
        std::vector<std::uint32_t> stage;
        std::uint32_t next = 0;
        std::size_t batch = 1;
        while (next < kTotal) {
            stage.clear();
            for (std::size_t i = 0; i < batch && next < kTotal; ++i)
                stage.push_back(next++);
            std::size_t off = 0;
            while (off < stage.size()) {
                const std::size_t n =
                    ring.push_batch(std::span(stage).subspan(off));
                if (n == 0) std::this_thread::yield();
                off += n;
            }
            batch = batch % 13 + 1;  // 1..13: straddles the capacity
        }
    });
    std::vector<std::uint32_t> out(6);
    std::uint32_t expect = 0;
    while (expect < kTotal) {
        const std::size_t got = ring.pop_batch(std::span(out));
        for (std::size_t i = 0; i < got; ++i) {
            ASSERT_EQ(out[i], expect);
            ++expect;
        }
        if (got == 0) std::this_thread::yield();
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(RaceSpscRing, MixedBatchAndSingleOpsStayFifoUnderContention) {
    // Alternating try_push/push_batch against pop_batch/try_pop keeps both
    // cached indices going stale and refreshing while the peer moves.
    constexpr int kTotal = 60000;
    SpscRing<int> ring(4);
    std::thread producer([&] {
        int next = 0;
        std::vector<int> stage(3);
        while (next < kTotal) {
            if (next % 2 == 0) {
                while (!ring.try_push(int{next})) std::this_thread::yield();
                ++next;
            } else {
                std::size_t n = 0;
                for (; n < stage.size() && next + static_cast<int>(n) < kTotal;
                     ++n)
                    stage[n] = next + static_cast<int>(n);
                std::size_t off = 0;
                while (off < n) {
                    const std::size_t pushed = ring.push_batch(
                        std::span(stage).subspan(off, n - off));
                    if (pushed == 0) std::this_thread::yield();
                    off += pushed;
                }
                next += static_cast<int>(n);
            }
        }
    });
    std::vector<int> out(5);
    int expect = 0;
    while (expect < kTotal) {
        if (expect % 3 == 0) {
            if (auto v = ring.try_pop()) {
                ASSERT_EQ(*v, expect);
                ++expect;
            } else {
                std::this_thread::yield();
            }
        } else {
            const std::size_t got = ring.pop_batch(std::span(out));
            for (std::size_t i = 0; i < got; ++i) {
                ASSERT_EQ(out[i], expect);
                ++expect;
            }
            if (got == 0) std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(RaceSpscRing, CapacityTwoMixedOpsWrapStaysFifoUnderContention) {
    // Full-speed mirror of the model-checked litmus units (src/check/
    // litmus.hpp ring_*): capacity 2 keeps every push/pop a wrap-boundary
    // event and every batch split across the wrap point, while alternating
    // single/batch ops on both sides churns the cached peer indices through
    // maximum staleness. The model checker proves every interleaving of the
    // small program; this runs the same protocol shape billions of ops deep
    // under TSan.
    constexpr int kTotal = 80000;
    SpscRing<int> ring(2);
    std::thread producer([&] {
        int next = 0;
        std::array<int, 2> stage{};
        while (next < kTotal) {
            if (next % 2 == 0) {
                while (!ring.try_push(int{next})) std::this_thread::yield();
                ++next;
            } else {
                std::size_t n = 0;
                for (; n < stage.size() && next + static_cast<int>(n) < kTotal;
                     ++n)
                    stage[n] = next + static_cast<int>(n);
                std::size_t off = 0;
                while (off < n) {
                    const std::size_t pushed = ring.push_batch(
                        std::span(stage).subspan(off, n - off));
                    if (pushed == 0) std::this_thread::yield();
                    off += pushed;
                }
                next += static_cast<int>(n);
            }
        }
    });
    std::array<int, 2> out{};
    int expect = 0;
    while (expect < kTotal) {
        if (expect % 3 == 0) {
            if (auto v = ring.try_pop()) {
                ASSERT_EQ(*v, expect);
                ++expect;
            } else {
                std::this_thread::yield();
            }
        } else {
            const std::size_t got = ring.pop_batch(std::span(out));
            for (std::size_t i = 0; i < got; ++i) {
                ASSERT_EQ(out[i], expect);
                ++expect;
            }
            if (got == 0) std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(RaceSpscRing, MoveOnlyPayloadHandsOffCleanly) {
    // unique_ptr payloads mean a duplicated or skipped slot shows up as a
    // leak/double-free under ASan and a race under TSan.
    SpscRing<std::unique_ptr<int>> ring(2);
    constexpr int kCount = 5000;
    std::int64_t sum = 0;
    std::thread consumer([&] {
        int seen = 0;
        while (seen < kCount) {
            if (auto v = ring.try_pop()) {
                sum += **v;
                ++seen;
            } else {
                std::this_thread::yield();
            }
        }
    });
    for (int i = 0; i < kCount; ++i) {
        auto p = std::make_unique<int>(i);
        while (!ring.try_push(std::move(p))) std::this_thread::yield();
    }
    consumer.join();
    EXPECT_EQ(sum, std::int64_t{kCount} * (kCount - 1) / 2);
}

// ---------------------------------------------------------- ThreadPool ----

TEST(RaceThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t kN = 10000;
    // Grain choices: auto-balance, unit grain (maximum chunk churn through
    // the atomic cursor), and a grain that does not divide kN (exercises the
    // final short chunk).
    for (std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
        std::vector<int> hits(kN, 0);
        pool.parallel_for(
            kN,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) ++hits[i];
            },
            grain);
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[i], 1) << "index " << i << " grain " << grain;
    }
}

TEST(RaceThreadPool, BackToBackParallelForsDoNotBleedAcrossJoins) {
    // parallel_for joins before returning, so iteration k's writes must be
    // visible to iteration k+1 without extra synchronization.
    ThreadPool pool(4);
    constexpr std::size_t kN = 4096;
    std::vector<std::uint64_t> v(kN, 0);
    for (int round = 0; round < 50; ++round) {
        pool.parallel_for(kN, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) ++v[i];
        });
    }
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(v[i], 50u);
}

TEST(RaceThreadPool, SubmitStormThenWaitIdleObservesEveryTask) {
    ThreadPool pool(4);
    std::atomic<int> done{0};
    constexpr int kTasks = 2000;
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(done.load(), kTasks);
}

TEST(RaceThreadPool, DestructorDrainsPendingTasks) {
    // The documented shutdown rule: destruction runs every already-submitted
    // task, then joins. Repeated construct/submit/destroy cycles give TSan
    // the begin-shutdown vs. worker-wakeup interleavings.
    std::atomic<int> done{0};
    constexpr int kCycles = 50;
    constexpr int kTasksPerCycle = 64;
    for (int c = 0; c < kCycles; ++c) {
        ThreadPool pool(3);
        for (int i = 0; i < kTasksPerCycle; ++i)
            pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_EQ(done.load(), kCycles * kTasksPerCycle);
}

// ----------------------------------------------------------- Telemetry ----

TEST(RaceTelemetry, ExporterSnapshotsWhileWritersAreHot) {
    // Writers hammer one counter, one gauge, one histogram and the span
    // trace while an exporter thread snapshots in a loop — the mid-run
    // export pattern. Snapshots taken mid-flight may see partial totals but
    // must never tear; the final quiescent snapshot must be exact.
    htims::telemetry::Registry reg(4096);
    auto& counter = reg.counter("race.counter");
    auto& gauge = reg.gauge("race.gauge");
    auto& histogram = reg.histogram("race.histogram");
    const std::uint32_t stage = reg.intern("race.stage");

    constexpr int kWriters = 4;
    constexpr int kOpsPerWriter = 5000;
    std::atomic<bool> stop_exporter{false};
    std::atomic<std::uint64_t> snapshots_taken{0};

    std::thread exporter([&] {
        while (!stop_exporter.load(std::memory_order_relaxed)) {
            const auto snap = reg.snapshot();
            // Every span visible mid-run must already be fully published.
            for (const auto& s : snap.spans) {
                ASSERT_EQ(s.stage, "race.stage");
                ASSERT_GE(s.end_ns, s.start_ns);
            }
            snapshots_taken.fetch_add(1, std::memory_order_relaxed);
        }
    });

    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (int i = 0; i < kOpsPerWriter; ++i) {
                auto span = reg.span(stage);
                counter.add(1);
                gauge.set(w);
                histogram.observe(static_cast<std::uint64_t>(i));
            }
        });
    }
    for (auto& t : writers) t.join();
    stop_exporter.store(true, std::memory_order_relaxed);
    exporter.join();

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].value, std::int64_t{kWriters} * kOpsPerWriter);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].summary.count,
              static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
    const std::uint64_t recorded = snap.spans.size() + snap.spans_dropped;
    EXPECT_EQ(recorded, static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
    EXPECT_GE(snapshots_taken.load(), 1u);
}

TEST(RaceTelemetry, InterningRacesResolveToStableIds) {
    htims::telemetry::Registry reg(64);
    constexpr int kThreads = 4;
    std::vector<std::uint32_t> ids(static_cast<std::size_t>(kThreads) * 2);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ids[static_cast<std::size_t>(t) * 2] = reg.intern("race.shared");
            ids[static_cast<std::size_t>(t) * 2 + 1] =
                reg.intern(t % 2 == 0 ? "race.even" : "race.odd");
        });
    }
    for (auto& t : threads) t.join();
    for (std::size_t t = 1; t < kThreads; ++t)
        EXPECT_EQ(ids[t * 2], ids[0]) << "shared name must intern to one id";
    EXPECT_EQ(reg.span_name(ids[0]), "race.shared");
}

// ------------------------------------------------------------- Hybrid ----

// Orchestrator start/stop with a link so shallow that the producer is
// backpressured on nearly every record — the stall path and the shutdown
// join both run under load. Repeated runs exercise clean start/stop cycles.
TEST(RaceHybrid, BackpressuredFpgaRunsStartAndStopCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 2);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kFpga;
    cfg.frames = 3;
    cfg.averages = 2;
    cfg.ring_records = 2;  // minimal link depth: permanent backpressure
    for (int run = 0; run < 3; ++run) {
        htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
        const auto report = pipeline.run();
        EXPECT_EQ(report.frames, 3u);
        EXPECT_EQ(report.samples, 3u * 2u * layout.cells());
    }
}

TEST(RaceHybrid, BackpressuredCpuRunsStartAndStopCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 1);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kCpu;
    cfg.frames = 2;
    cfg.cpu_threads = 2;
    cfg.ring_records = 2;
    for (int run = 0; run < 2; ++run) {
        htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
        const auto report = pipeline.run();
        EXPECT_EQ(report.frames, 2u);
    }
}

// Overlapped decode adds a third thread (the decode worker) and a buffer
// handoff channel to the start/stop picture: producer → ring → consumer →
// channel → worker, with frames recycled back through the free list. The
// shallow ring keeps the producer backpressured while the channel cycles
// buffers at frame rate, so TSan watches every edge of the handoff under
// load, including worker join on shutdown.
TEST(RaceHybrid, OverlappedFpgaDecodeStartsAndStopsCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 2);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kFpga;
    cfg.frames = 3;
    cfg.averages = 2;
    cfg.ring_records = 2;
    cfg.overlap_decode = true;
    for (int run = 0; run < 3; ++run) {
        htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
        const auto report = pipeline.run();
        EXPECT_EQ(report.frames, 3u);
        EXPECT_EQ(report.samples, 3u * 2u * layout.cells());
    }
}

TEST(RaceHybrid, OverlappedCpuDecodeStartsAndStopsCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 1);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kCpu;
    cfg.frames = 3;
    cfg.cpu_threads = 2;
    cfg.ring_records = 2;
    cfg.overlap_decode = true;
    cfg.decode_workers = 2;  // 3 frames in flight: workers and consumer overlap
    for (int run = 0; run < 3; ++run) {
        htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
        const auto report = pipeline.run();
        EXPECT_EQ(report.frames, 3u);
    }
}

// Multiple decode workers add the ordered-emission turnstile and per-worker
// backend instances to the shutdown picture: consumer → work deque → N
// workers → turnstile → sink, buffers recycling through the free deque.
// Start/stop churn across runs gives TSan the spawn/join edges; the shallow
// ring plus a free list barely deeper than the worker count keeps every
// handoff contended.
TEST(RaceHybrid, MultiWorkerFpgaDecodeChurnsCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 2);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kFpga;
    cfg.frames = 4;
    cfg.averages = 2;
    cfg.ring_records = 2;
    cfg.overlap_decode = true;
    for (std::size_t workers : {std::size_t{2}, std::size_t{3}}) {
        cfg.decode_workers = workers;
        for (int run = 0; run < 3; ++run) {
            htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
            const auto report = pipeline.run();
            EXPECT_EQ(report.frames, 4u);
            EXPECT_EQ(report.samples, 4u * 2u * layout.cells());
        }
    }
}

// -------------------------------------------------------------- Fleet ----

// A fleet multiplies the thread census: per-stream producers and consumers,
// the shared MPMC dispatch queue, the worker pool, and per-stream turnstile
// and free-pool traffic all start and stop together. These tests keep every
// one of those edges contended (shallow rings, shallow dispatch) so the
// TSan stage watches the fleet's full protocol surface under load.

htims::pipeline::FleetStream race_fleet_stream(std::size_t si,
                                               std::size_t frames) {
    static const htims::prs::OversampledPrs seq(5, 1,
                                                htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    htims::pipeline::HybridConfig cfg;
    cfg.backend = (si % 2 == 0) ? htims::pipeline::BackendKind::kFpga
                                : htims::pipeline::BackendKind::kCpu;
    cfg.frames = frames;
    cfg.averages = 2;
    cfg.ring_records = 2;  // minimal link depth: permanent backpressure
    cfg.cpu_threads = 1;
    std::vector<std::uint32_t> period(
        layout.cells(), static_cast<std::uint32_t>(si + 1));
    return htims::pipeline::FleetStream{seq, layout, cfg, std::move(period),
                                        nullptr};
}

TEST(RaceFleet, StartStopChurnWithMixedBackends) {
    // Repeated whole-fleet start/stop cycles: every round spawns and joins
    // 2 threads per stream plus the shared pool, with all rings at minimal
    // depth so shutdown happens under live backpressure.
    for (int round = 0; round < 3; ++round) {
        std::vector<htims::pipeline::FleetStream> streams;
        for (std::size_t si = 0; si < 4; ++si)
            streams.push_back(race_fleet_stream(si, 3));
        htims::pipeline::FleetConfig fc;
        fc.decode_workers = 3;
        const auto report =
            htims::pipeline::FleetRunner(std::move(streams), fc).run();
        ASSERT_EQ(report.streams.size(), 4u);
        for (const auto& s : report.streams) EXPECT_EQ(s.report.frames, 3u);
    }
}

TEST(RaceFleet, DispatchQueueFullKeepsEveryStreamCompleting) {
    // dispatch_depth=1 makes the shared queue a single slot: consumers spin
    // on queue-full while workers race to drain, so the ticket recycle path
    // and the backpressure wait run constantly on every stream at once.
    for (int round = 0; round < 3; ++round) {
        std::vector<htims::pipeline::FleetStream> streams;
        for (std::size_t si = 0; si < 3; ++si)
            streams.push_back(race_fleet_stream(si, 4));
        htims::pipeline::FleetConfig fc;
        fc.decode_workers = 2;
        fc.dispatch_depth = 1;
        const auto report =
            htims::pipeline::FleetRunner(std::move(streams), fc).run();
        for (const auto& s : report.streams) EXPECT_EQ(s.report.frames, 4u);
    }
}

TEST(RaceFleet, SinkFailureShutsDownWithNonEmptyDispatchQueue) {
    // A frame sink that throws mid-run kills the decode pool while other
    // streams are still enqueuing: the abort must drain the dispatch queue,
    // release every blocked consumer, join every thread, and surface the
    // failure from run() — every round, without leaking a frame buffer.
    for (int round = 0; round < 3; ++round) {
        std::vector<htims::pipeline::FleetStream> streams;
        for (std::size_t si = 0; si < 3; ++si)
            streams.push_back(race_fleet_stream(si, 4));
        streams[1].config.frame_sink =
            [](std::size_t index, const htims::pipeline::Frame&) {
                if (index == 1) throw std::runtime_error("sink rejected frame");
            };
        htims::pipeline::FleetConfig fc;
        fc.decode_workers = 2;
        EXPECT_THROW(
            htims::pipeline::FleetRunner(std::move(streams), fc).run(),
            std::runtime_error)
            << "round " << round;
    }
}

// ---------------------------------------------------------- MpmcQueue ----

TEST(RaceMpmcQueue, ManyProducersManyConsumersDeliverExactlyOnce) {
    // 4 producers × 2 consumers through a 4-slot queue: every slot is
    // permanently contested, so ticket claims, payload publishes, and slot
    // recycles interleave at maximum density. Exactly-once delivery is
    // checked by total sum and per-producer item counts.
    constexpr std::size_t kProducers = 4;
    constexpr std::size_t kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 20000;
    htims::pipeline::MpmcQueue<std::uint64_t> queue(4);
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kProducers; ++p) {
        threads.emplace_back([&queue, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                // Tag items with the producer id in the top bits.
                std::uint64_t item = (p << 60) | i;
                while (!queue.try_push(std::move(item)))
                    std::this_thread::yield();
            }
        });
    }
    constexpr std::uint64_t kTotal = kProducers * kPerProducer;
    for (std::size_t c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            while (consumed.load(std::memory_order_relaxed) < kTotal) {
                if (auto v = queue.try_pop()) {
                    sum.fetch_add(*v & ~(std::uint64_t{0xF} << 60),
                                  std::memory_order_relaxed);
                    consumed.fetch_add(1, std::memory_order_relaxed);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(consumed.load(), kTotal);
    EXPECT_EQ(sum.load(),
              kProducers * (kPerProducer * (kPerProducer - 1) / 2));
    EXPECT_TRUE(queue.empty());
}

TEST(RaceMpmcQueue, DestructionWithQueuedItemsReleasesThem) {
    // Leftover payloads at destruction must be destroyed exactly once —
    // visible as a leak (ASan) or double-free if the slot accounting between
    // tickets and indices disagrees after heavy wrapping.
    for (int round = 0; round < 100; ++round) {
        htims::pipeline::MpmcQueue<std::shared_ptr<int>> queue(8);
        for (int i = 0; i < 5; ++i)
            ASSERT_TRUE(queue.try_push(std::make_shared<int>(i)));
        (void)queue.try_pop();  // leave 4 queued across the wrap point
    }
}

// ----------------------------------------------------- park and wake ----

// The blocking waits park the caller on a doorbell that every publication
// of the peer rings. These storms keep the handoff at its boundaries so a
// side parks on nearly every operation: a lost wakeup hangs the test (the
// ctest timeout catches it) and a missing happens-before edge is a TSan
// report.

TEST(RaceParkWake, SpscRingStormAtCapacityTwo) {
    constexpr std::uint32_t kTotal = 20000;
    SpscRing<std::uint32_t> ring(2);
    // Each side naps now and then, past the spin budget, so the other side
    // really parks (on empty and on full) rather than riding out the spin.
    const auto nap = [] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    };
    std::thread producer([&] {
        for (std::uint32_t i = 0; i < kTotal; ++i) {
            if (i % 1024 == 512) nap();
            while (!ring.try_push(std::uint32_t{i})) ring.wait_for_space();
        }
    });
    for (std::uint32_t expect = 0; expect < kTotal; ++expect) {
        if (expect % 1024 == 0) nap();
        auto v = ring.try_pop();
        while (!v) {
            ring.wait_for_data();
            v = ring.try_pop();
        }
        ASSERT_EQ(*v, expect);
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(RaceParkWake, SpscRingBatchStormAtCapacityTwo) {
    constexpr std::uint32_t kTotal = 20000;
    SpscRing<std::uint32_t> ring(2);
    std::thread producer([&] {
        std::array<std::uint32_t, 3> stage{};
        std::uint32_t next = 0;
        while (next < kTotal) {
            std::size_t n = 0;
            while (n < stage.size() && next < kTotal) stage[n++] = next++;
            std::size_t off = 0;
            while (off < n) {
                const std::size_t pushed =
                    ring.push_batch(std::span(stage).subspan(off, n - off));
                if (pushed == 0) ring.wait_for_space();
                off += pushed;
            }
        }
    });
    std::array<std::uint32_t, 2> out{};
    std::uint32_t expect = 0;
    while (expect < kTotal) {
        const std::size_t got = ring.pop_batch(std::span(out));
        if (got == 0) ring.wait_for_data();
        for (std::size_t i = 0; i < got; ++i) {
            ASSERT_EQ(out[i], expect);
            ++expect;
        }
    }
    producer.join();
}

TEST(RaceParkWake, MpmcQueueStormDeliversExactlyOnce) {
    // 2 producers park on a full 2-slot queue, 2 consumers park on an empty
    // one; the consumer that takes the last item re-rings the pop side so
    // its parked peer sees the stop condition and exits.
    constexpr std::uint64_t kPerProducer = 10000;
    constexpr std::uint64_t kTotal = 2 * kPerProducer;
    htims::pipeline::MpmcQueue<std::uint64_t> queue(2);
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<std::uint64_t> sum{0};
    const auto all_consumed = [&] {
        return consumed.load(std::memory_order_acquire) == kTotal;
    };
    std::vector<std::thread> threads;
    for (std::uint64_t p = 0; p < 2; ++p) {
        threads.emplace_back([&queue, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                std::uint64_t item = p * kPerProducer + i;
                while (!queue.try_push(std::move(item))) queue.wait_for_slot();
            }
        });
    }
    for (int c = 0; c < 2; ++c) {
        threads.emplace_back([&] {
            while (!all_consumed()) {
                if (auto v = queue.try_pop()) {
                    sum.fetch_add(*v, std::memory_order_relaxed);
                    if (consumed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                        kTotal)
                        queue.wake_item_waiters();
                } else {
                    queue.wait_for_item(all_consumed);
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(consumed.load(), kTotal);
    EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
    EXPECT_TRUE(queue.empty());
}

double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(RaceParkWake, IdleWaitersSleepInsteadOfSpinning) {
    // A consumer parked on an empty ring, and a decode worker parked on an
    // empty dispatch queue, for 200 ms each: a yield-spin would burn about
    // the whole 200 ms of thread CPU, a parked thread almost none.
    constexpr auto kIdle = std::chrono::milliseconds(200);
    SpscRing<int> ring(4);
    double ring_cpu_s = 0.0;
    std::thread consumer([&] {
        const double t0 = thread_cpu_seconds();
        ring.wait_for_data();
        ring_cpu_s = thread_cpu_seconds() - t0;
        EXPECT_EQ(ring.try_pop(), std::optional<int>(1));
    });
    std::this_thread::sleep_for(kIdle);
    ASSERT_TRUE(ring.try_push(1));
    consumer.join();
    EXPECT_LT(ring_cpu_s, 0.020);

    htims::pipeline::MpmcQueue<int> queue(4);
    double queue_cpu_s = 0.0;
    std::thread worker([&] {
        const double t0 = thread_cpu_seconds();
        queue.wait_for_item([] { return false; });
        queue_cpu_s = thread_cpu_seconds() - t0;
        EXPECT_EQ(queue.try_pop(), std::optional<int>(2));
    });
    std::this_thread::sleep_for(kIdle);
    ASSERT_TRUE(queue.try_push(2));
    worker.join();
    EXPECT_LT(queue_cpu_s, 0.020);
}

// A paced source: frame f's records are released f * period_ns after the
// stream starts, so between frames the whole decode pool sits parked.
class FramePacedSource final : public htims::pipeline::RecordSource {
public:
    FramePacedSource(std::vector<std::uint32_t> period,
                     const htims::pipeline::FrameLayout& layout,
                     std::uint64_t frames, std::uint64_t period_ns)
        : inner_(std::move(period), layout, frames, 1),
          records_per_frame_(layout.drift_bins),
          period_ns_(period_ns) {}

    std::uint64_t total_records() const override { return inner_.total_records(); }
    std::span<const std::uint32_t> record(std::uint64_t seq) override {
        return inner_.record(seq);
    }
    std::uint64_t release_ns(std::uint64_t seq) const override {
        return seq / records_per_frame_ * period_ns_;
    }

private:
    htims::pipeline::PeriodTemplateSource inner_;
    std::uint64_t records_per_frame_;
    std::uint64_t period_ns_;
};

TEST(RaceFleet, StartStopWhileWorkersAreParked) {
    // 2 paced streams over 4 workers: most workers are parked on the empty
    // dispatch queue for most of the run, and the last consumer's exit must
    // wake every one of them so run() returns.
    static const htims::prs::OversampledPrs seq(5, 1,
                                                htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    for (int round = 0; round < 3; ++round) {
        std::vector<std::unique_ptr<FramePacedSource>> sources;
        std::vector<htims::pipeline::FleetStream> streams;
        for (std::size_t si = 0; si < 2; ++si) {
            sources.push_back(std::make_unique<FramePacedSource>(
                std::vector<std::uint32_t>(layout.cells(), 1), layout, 3,
                10'000'000));
            htims::pipeline::HybridConfig cfg;
            cfg.backend = htims::pipeline::BackendKind::kCpu;
            cfg.frames = 3;
            cfg.cpu_threads = 1;
            streams.push_back(htims::pipeline::FleetStream{
                seq, layout, cfg, {}, sources.back().get()});
        }
        htims::pipeline::FleetConfig fc;
        fc.decode_workers = 4;
        const auto report =
            htims::pipeline::FleetRunner(std::move(streams), fc).run();
        for (const auto& s : report.streams) EXPECT_EQ(s.report.frames, 3u);
    }
}

TEST(RaceFleet, WorkerFailureReleasesConsumersParkedOnFreeBuffers) {
    // Both workers hold a stream's only in-flight buffer inside a slow sink,
    // so both consumers are parked waiting for a free buffer when stream 0's
    // sink throws: the failing worker must release every parked consumer
    // and run() must surface the failure instead of hanging.
    for (int round = 0; round < 3; ++round) {
        std::vector<htims::pipeline::FleetStream> streams;
        for (std::size_t si = 0; si < 2; ++si) {
            streams.push_back(race_fleet_stream(si, 4));
            streams.back().config.frame_sink =
                [si](std::size_t index, const htims::pipeline::Frame&) {
                    if (index != 0) return;
                    std::this_thread::sleep_for(std::chrono::milliseconds(30));
                    if (si == 0) throw std::runtime_error("sink rejected frame");
                };
        }
        htims::pipeline::FleetConfig fc;
        fc.decode_workers = 2;
        EXPECT_THROW(
            htims::pipeline::FleetRunner(std::move(streams), fc).run(),
            std::runtime_error)
            << "round " << round;
    }
}

TEST(RaceHybrid, MultiWorkerCpuDecodeChurnsCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 1);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kCpu;
    cfg.frames = 4;
    cfg.cpu_threads = 2;
    cfg.ring_records = 2;
    cfg.overlap_decode = true;
    for (std::size_t workers : {std::size_t{2}, std::size_t{3}}) {
        cfg.decode_workers = workers;
        for (int run = 0; run < 3; ++run) {
            htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
            const auto report = pipeline.run();
            EXPECT_EQ(report.frames, 4u);
        }
    }
}

}  // namespace
