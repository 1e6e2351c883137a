// Tests for the deterministic fault-injection layer (src/fault) and the
// degraded-mode behaviour it drives in frame_io, the hybrid orchestrator,
// the CPU backend, and the FPGA model.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/fpga.hpp"
#include "pipeline/frame_io.hpp"
#include "pipeline/hybrid.hpp"
#include "transform/enhanced.hpp"

namespace htims::fault {
namespace {

// ----------------------------------------------------------- FaultPlan ----

TEST(FaultPlan, DefaultIsEmpty) {
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    FaultInjector injector(plan);
    for (std::size_t s = 0; s < kSiteCount; ++s)
        EXPECT_FALSE(injector.should_fire(static_cast<Site>(s)));
}

TEST(FaultPlan, ParsesSeedProbabilitiesAndSchedules) {
    const auto plan = FaultPlan::parse(
        "seed=42, frame_io.corrupt=0.25, link.overrun=1, cpu.fail@3:17:3");
    EXPECT_EQ(plan.seed, 42u);
    EXPECT_DOUBLE_EQ(plan.site(Site::kFrameCorrupt).probability, 0.25);
    EXPECT_DOUBLE_EQ(plan.site(Site::kLinkOverrun).probability, 1.0);
    // Schedules come back sorted and deduplicated.
    EXPECT_EQ(plan.site(Site::kCpuFault).schedule,
              (std::vector<std::uint64_t>{3, 17}));
    EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ToStringRoundTrips) {
    const auto plan = FaultPlan::parse(
        "seed=7,frame_io.truncate=0.125,fpga.overrun@0:9,link.jitter=0.5");
    const auto again = FaultPlan::parse(plan.to_string());
    EXPECT_EQ(again.seed, plan.seed);
    for (std::size_t s = 0; s < kSiteCount; ++s) {
        EXPECT_DOUBLE_EQ(again.sites[s].probability, plan.sites[s].probability);
        EXPECT_EQ(again.sites[s].schedule, plan.sites[s].schedule);
    }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
    EXPECT_THROW(FaultPlan::parse("bogus.site=0.5"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("cpu.fail=1.5"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("cpu.fail=-0.1"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("cpu.fail=abc"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("cpu.fail@x"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("justaword"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("seed=notanumber"), ConfigError);
}

TEST(FaultPlan, SiteNamesRoundTrip) {
    for (std::size_t s = 0; s < kSiteCount; ++s) {
        const auto site = static_cast<Site>(s);
        EXPECT_EQ(site_from_name(site_name(site)), site);
    }
    EXPECT_THROW(site_from_name("not.a.site"), ConfigError);
}

// ------------------------------------------------------- FaultInjector ----

TEST(FaultInjector, ScheduledEventsFireExactly) {
    FaultInjector injector(FaultPlan::parse("cpu.fail@0:2"));
    EXPECT_TRUE(injector.should_fire(Site::kCpuFault));   // event 0
    EXPECT_FALSE(injector.should_fire(Site::kCpuFault));  // event 1
    EXPECT_TRUE(injector.should_fire(Site::kCpuFault));   // event 2
    EXPECT_FALSE(injector.should_fire(Site::kCpuFault));  // event 3
    EXPECT_EQ(injector.events(Site::kCpuFault), 4u);
    EXPECT_EQ(injector.injected(Site::kCpuFault), 2u);
}

TEST(FaultInjector, ProbabilityEndpointsAreExact) {
    FaultInjector always(FaultPlan::parse("link.overrun=1"));
    FaultInjector never(FaultPlan::parse("link.overrun=0"));
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(always.should_fire(Site::kLinkOverrun));
        EXPECT_FALSE(never.should_fire(Site::kLinkOverrun));
    }
}

TEST(FaultInjector, BernoulliRateIsRoughlyHonoured) {
    FaultInjector injector(FaultPlan::parse("seed=99,frame_io.corrupt=0.1"));
    const int n = 20000;
    for (int i = 0; i < n; ++i) injector.should_fire(Site::kFrameCorrupt);
    const auto hits = injector.injected(Site::kFrameCorrupt);
    // 6 sigma around np = 2000 (sigma ~ 42).
    EXPECT_GT(hits, 1700u);
    EXPECT_LT(hits, 2300u);
}

TEST(FaultInjector, DecisionsArePureFunctionsOfSeedSiteEvent) {
    const auto plan = FaultPlan::parse("seed=1234,link.jitter=0.3,cpu.fail=0.05");
    FaultInjector a(plan), b(plan);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.should_fire(Site::kLinkJitter), b.fires_at(Site::kLinkJitter, i));
        b.should_fire(Site::kLinkJitter);
    }
    EXPECT_EQ(a.counts(), b.counts());

    // A different seed produces a different pattern.
    FaultInjector c(FaultPlan::parse("seed=1235,link.jitter=0.3"));
    int diffs = 0;
    for (int i = 0; i < 500; ++i)
        diffs += a.fires_at(Site::kLinkJitter, i) != c.fires_at(Site::kLinkJitter, i);
    EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, DrawBelowIsDeterministicAndInRange) {
    FaultInjector injector(FaultPlan::parse("seed=5"));
    for (std::uint64_t ev = 0; ev < 200; ++ev) {
        const auto v = injector.draw_below(Site::kFrameCorrupt, ev, 17);
        EXPECT_LT(v, 17u);
        EXPECT_EQ(v, injector.draw_below(Site::kFrameCorrupt, ev, 17));
        // Salted draws are independent streams.
        EXPECT_EQ(injector.draw_below(Site::kFrameCorrupt, ev, 1000, 1),
                  injector.draw_below(Site::kFrameCorrupt, ev, 1000, 1));
    }
}

TEST(FaultInjector, CountersAreThreadSafeAndResettable) {
    FaultInjector injector(FaultPlan::parse("seed=3,cpu.fail=0.5"));
    constexpr int kThreads = 4, kPerThread = 1000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i)
                injector.should_fire(Site::kCpuFault);
        });
    for (auto& w : workers) w.join();
    EXPECT_EQ(injector.events(Site::kCpuFault), kThreads * kPerThread);
    // The decision for event k is interleaving-independent, so the total
    // injected count matches a serial replay of the same event range.
    std::uint64_t serial = 0;
    for (std::uint64_t ev = 0; ev < kThreads * kPerThread; ++ev)
        serial += injector.fires_at(Site::kCpuFault, ev) ? 1 : 0;
    EXPECT_EQ(injector.injected(Site::kCpuFault), serial);

    injector.reset();
    EXPECT_EQ(injector.events(Site::kCpuFault), 0u);
    EXPECT_EQ(injector.counts().total_injected(), 0u);
}

}  // namespace
}  // namespace htims::fault

namespace htims::pipeline {
namespace {

FrameLayout small_layout(const prs::OversampledPrs& seq, std::size_t mz = 16) {
    return FrameLayout{.drift_bins = seq.length(), .mz_bins = mz,
                       .drift_bin_width_s = 1e-4};
}

// ------------------------------------------------- frame_io injection ----

Frame test_frame(const FrameLayout& layout, double scale = 1.0) {
    Frame frame(layout);
    for (std::size_t i = 0; i < frame.data().size(); ++i)
        frame.data()[i] = scale * static_cast<double>(i % 97);
    return frame;
}

TEST(FaultedFrameIo, CorruptedWriteIsDetectedOnRead) {
    const prs::OversampledPrs seq(4, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    fault::FaultInjector faults(fault::FaultPlan::parse("seed=11,frame_io.corrupt@0"));
    std::ostringstream os(std::ios::binary);
    write_frame(os, test_frame(layout), &faults);
    EXPECT_EQ(faults.injected(fault::Site::kFrameCorrupt), 1u);
    std::istringstream is(os.str(), std::ios::binary);
    EXPECT_THROW(read_frame(is), Error);
}

TEST(FaultedFrameIo, NullInjectorWritesIdenticalBytes) {
    const prs::OversampledPrs seq(4, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    const Frame frame = test_frame(layout);
    std::ostringstream plain(std::ios::binary), via_null(std::ios::binary);
    write_frame(plain, frame);
    write_frame(via_null, frame, nullptr);
    EXPECT_EQ(plain.str(), via_null.str());
}

TEST(FaultedFrameIo, StreamReaderResyncsPastCorruptFrame) {
    const prs::OversampledPrs seq(4, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    // [good][corrupt][good]: the middle frame is lost, both neighbours
    // decode, and the loss is counted.
    fault::FaultInjector faults(fault::FaultPlan::parse("seed=2,frame_io.corrupt@1"));
    std::ostringstream os(std::ios::binary);
    write_frame(os, test_frame(layout, 1.0), &faults);
    write_frame(os, test_frame(layout, 2.0), &faults);
    write_frame(os, test_frame(layout, 3.0), &faults);

    FrameStreamReader reader(os.str(), RecoveryMode::kResync);
    std::vector<Frame> frames;
    while (auto f = reader.next()) frames.push_back(std::move(*f));
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].data()[1], 1.0);
    EXPECT_EQ(frames[1].data()[1], 3.0);
    EXPECT_EQ(reader.stats().frames_ok, 2u);
    EXPECT_EQ(reader.stats().frames_lost, 1u);
    EXPECT_EQ(reader.stats().resyncs, 1u);
    EXPECT_TRUE(reader.exhausted());
}

TEST(FaultedFrameIo, StreamReaderResyncsPastTruncatedFrame) {
    const prs::OversampledPrs seq(4, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    fault::FaultInjector faults(fault::FaultPlan::parse("seed=8,frame_io.truncate@0"));
    std::ostringstream os(std::ios::binary);
    write_frame(os, test_frame(layout, 1.0), &faults);  // truncated
    write_frame(os, test_frame(layout, 2.0), &faults);  // intact

    FrameStreamReader reader(os.str(), RecoveryMode::kResync);
    std::vector<Frame> frames;
    while (auto f = reader.next()) frames.push_back(std::move(*f));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].data()[1], 2.0);
    EXPECT_EQ(reader.stats().frames_lost, 1u);
    EXPECT_GT(reader.stats().bytes_skipped, 0u);
}

TEST(FaultedFrameIo, ThrowModePropagates) {
    const prs::OversampledPrs seq(4, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    fault::FaultInjector faults(fault::FaultPlan::parse("seed=2,frame_io.corrupt@0"));
    std::ostringstream os(std::ios::binary);
    write_frame(os, test_frame(layout), &faults);
    FrameStreamReader reader(os.str(), RecoveryMode::kThrow);
    EXPECT_THROW(reader.next(), Error);
}

// ------------------------------------------------------ backend faults ----

TEST(FaultedCpuBackend, TransientFailureRetriesThenSucceeds) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    const Frame raw = test_frame(layout);

    CpuBackend clean(seq, layout, 2);
    const Frame want = clean.deconvolve(raw);

    fault::FaultInjector faults(fault::FaultPlan::parse("cpu.fail@0"));
    CpuBackend cpu(seq, layout, 2);
    cpu.set_faults(&faults, /*max_retries=*/4, /*backoff_s=*/0.0);
    const Frame got = cpu.deconvolve(raw);
    EXPECT_EQ(cpu.task_retries(), 1u);
    for (std::size_t i = 0; i < got.data().size(); ++i)
        EXPECT_DOUBLE_EQ(got.data()[i], want.data()[i]);
}

TEST(FaultedCpuBackend, PersistentFailureExhaustsRetries) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    fault::FaultInjector faults(fault::FaultPlan::parse("cpu.fail=1"));
    CpuBackend cpu(seq, layout, 2);
    cpu.set_faults(&faults, /*max_retries=*/3, /*backoff_s=*/0.0);
    EXPECT_THROW(cpu.deconvolve(test_frame(layout)), Error);
    EXPECT_EQ(cpu.task_retries(), 3u);
}

TEST(FaultedFpga, BudgetOverrunYieldsPartialFrame) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 16);
    fault::FaultInjector faults(fault::FaultPlan::parse("seed=6,fpga.overrun@0"));
    FpgaPipeline fpga(seq, layout, FpgaConfig{});
    fpga.set_faults(&faults);
    fpga.begin_frame();
    std::vector<std::uint32_t> period(layout.cells(), 2);
    fpga.push_samples(period);
    const Frame out = fpga.end_frame();

    const auto& report = fpga.report();
    EXPECT_TRUE(report.budget_overrun);
    EXPECT_LT(report.channels_decoded, layout.mz_bins);
    // Channels past the cut stayed zero; decoded channels carry signal.
    for (std::size_t mz = report.channels_decoded; mz < layout.mz_bins; ++mz)
        for (std::size_t d = 0; d < layout.drift_bins; ++d)
            EXPECT_EQ(out.at(d, mz), 0.0);
    EXPECT_EQ(faults.injected(fault::Site::kFpgaOverrun), 1u);
}

TEST(FaultedFpga, CleanRunReportsFullDecode) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 16);
    FpgaPipeline fpga(seq, layout, FpgaConfig{});
    fpga.begin_frame();
    std::vector<std::uint32_t> period(layout.cells(), 2);
    fpga.push_samples(period);
    fpga.end_frame();
    EXPECT_FALSE(fpga.report().budget_overrun);
    EXPECT_EQ(fpga.report().channels_decoded, layout.mz_bins);
}

// ------------------------------------------------------- hybrid faults ----

HybridConfig drill_config(BackendKind backend, fault::FaultInjector* faults,
                          RingFullPolicy policy, std::size_t ring_records) {
    HybridConfig cfg;
    cfg.backend = backend;
    cfg.frames = 3;
    cfg.averages = 2;
    cfg.ring_records = ring_records;
    cfg.cpu_threads = 2;
    cfg.ring_policy = policy;
    cfg.faults = faults;
    return cfg;
}

TEST(FaultedHybrid, ConfigValidation) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    std::vector<std::uint32_t> period(layout.cells(), 1);
    HybridConfig cfg;
    cfg.ring_timeout_s = -1.0;
    EXPECT_THROW(HybridPipeline(seq, layout, period, cfg), ConfigError);
    cfg.ring_timeout_s = 0.0;
    cfg.cpu_max_retries = -1;
    EXPECT_THROW(HybridPipeline(seq, layout, period, cfg), ConfigError);
}

TEST(FaultedHybrid, BlockPolicyAbsorbsForcedOverrunsWithoutLoss) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    std::vector<std::uint32_t> period(layout.cells(), 1);
    fault::FaultInjector faults(
        fault::FaultPlan::parse("seed=21,link.overrun@0:5:11"));
    const auto cfg = drill_config(BackendKind::kCpu, &faults,
                                  RingFullPolicy::kBlock, 256);
    const auto report = HybridPipeline(seq, layout, period, cfg).run();
    // Under Block with no timeout a forced overrun stalls, never drops.
    EXPECT_EQ(report.frames, cfg.frames);
    EXPECT_EQ(report.records_dropped, 0u);
    EXPECT_EQ(report.frames_degraded, 0u);
    EXPECT_EQ(report.faults.injected_at(fault::Site::kLinkOverrun), 3u);
}

TEST(FaultedHybrid, DropNewestDropsExactlyTheForcedRecords) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    std::vector<std::uint32_t> period(layout.cells(), 1);
    fault::FaultInjector faults(
        fault::FaultPlan::parse("seed=22,link.overrun@0:7:31"));
    // Ring deeper than the stream: the only "full link" events are forced.
    const auto cfg = drill_config(BackendKind::kCpu, &faults,
                                  RingFullPolicy::kDropNewest, 1024);
    const auto report = HybridPipeline(seq, layout, period, cfg).run();
    EXPECT_EQ(report.frames, cfg.frames);
    EXPECT_EQ(report.records_dropped, 3u);
    EXPECT_GE(report.frames_degraded, 1u);
    EXPECT_EQ(report.records_dropped,
              report.faults.injected_at(fault::Site::kLinkOverrun));
}

TEST(FaultedHybrid, DropOldestDropsOnePerForcedOverrun) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    std::vector<std::uint32_t> period(layout.cells(), 1);
    fault::FaultInjector faults(
        fault::FaultPlan::parse("seed=23,link.overrun@2:9"));
    const auto cfg = drill_config(BackendKind::kCpu, &faults,
                                  RingFullPolicy::kDropOldest, 1024);
    const auto report = HybridPipeline(seq, layout, period, cfg).run();
    EXPECT_EQ(report.frames, cfg.frames);
    EXPECT_EQ(report.records_dropped, 2u);
    EXPECT_EQ(report.records_dropped,
              report.faults.injected_at(fault::Site::kLinkOverrun));
}

TEST(FaultedHybrid, FpgaBackendSurvivesMixedFaults) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    std::vector<std::uint32_t> period(layout.cells(), 1);
    fault::FaultInjector faults(fault::FaultPlan::parse(
        "seed=24,link.overrun@1:8,link.jitter@0,fpga.overrun@1"));
    const auto cfg = drill_config(BackendKind::kFpga, &faults,
                                  RingFullPolicy::kDropNewest, 1024);
    const auto report = HybridPipeline(seq, layout, period, cfg).run();
    EXPECT_EQ(report.frames, cfg.frames);
    EXPECT_EQ(report.records_dropped, 2u);
    EXPECT_EQ(report.faults.injected_at(fault::Site::kFpgaOverrun), 1u);
    EXPECT_EQ(report.faults.injected_at(fault::Site::kLinkJitter), 1u);
}

TEST(FaultedHybrid, CpuRetriesSurfaceInReport) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    std::vector<std::uint32_t> period(layout.cells(), 1);
    fault::FaultInjector faults(fault::FaultPlan::parse("cpu.fail@0"));
    auto cfg = drill_config(BackendKind::kCpu, &faults,
                            RingFullPolicy::kBlock, 256);
    cfg.cpu_retry_backoff_s = 0.0;
    const auto report = HybridPipeline(seq, layout, period, cfg).run();
    EXPECT_EQ(report.frames, cfg.frames);
    EXPECT_EQ(report.cpu_task_retries, 1u);
    EXPECT_EQ(report.faults.injected_at(fault::Site::kCpuFault), 1u);
}

TEST(FaultedHybrid, SameSeedReproducesInjectionCountsExactly) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    std::vector<std::uint32_t> period(layout.cells(), 1);
    const auto plan = fault::FaultPlan::parse(
        "seed=77,link.overrun=0.02,link.jitter=0.01,cpu.fail@1");
    // DropNewest drops exactly the forced records, so the *entire*
    // degradation outcome is a function of the seed. (Under DropOldest the
    // dropped record depends on what is queued at credit time — injection
    // counts still reproduce, but the degraded-frame set legitimately may
    // not.)
    HybridReport first, second;
    {
        fault::FaultInjector faults(plan);
        auto cfg = drill_config(BackendKind::kCpu, &faults,
                                RingFullPolicy::kDropNewest, 1024);
        cfg.cpu_retry_backoff_s = 0.0;
        first = HybridPipeline(seq, layout, period, cfg).run();
    }
    {
        fault::FaultInjector faults(plan);
        auto cfg = drill_config(BackendKind::kCpu, &faults,
                                RingFullPolicy::kDropNewest, 1024);
        cfg.cpu_retry_backoff_s = 0.0;
        second = HybridPipeline(seq, layout, period, cfg).run();
    }
    EXPECT_EQ(first.faults, second.faults);
    EXPECT_EQ(first.records_dropped, second.records_dropped);
    EXPECT_EQ(first.frames_degraded, second.frames_degraded);
    EXPECT_EQ(first.cpu_task_retries, second.cpu_task_retries);
    // The injected overruns are exactly the drops (ring never fills
    // naturally at this depth).
    EXPECT_EQ(first.records_dropped,
              first.faults.injected_at(fault::Site::kLinkOverrun));
}

/// A period-template source that holds back record(seq) for seq >= `gate`
/// until `open()` holds, so a test can start a consumer stall with a known
/// set of records on the link. The wait is bounded; `timed_out()` reports
/// whether it expired.
class GatedSource final : public RecordSource {
public:
    GatedSource(std::vector<std::uint32_t> period, const FrameLayout& layout,
                std::uint64_t frames, std::uint64_t gate,
                std::function<bool()> open)
        : inner_(std::move(period), layout, frames, 1),
          gate_(gate),
          open_(std::move(open)) {}

    std::uint64_t total_records() const override {
        return inner_.total_records();
    }
    std::span<const std::uint32_t> record(std::uint64_t seq) override {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (seq >= gate_ && !opened_) {
            opened_ = open_();
            if (!opened_ && std::chrono::steady_clock::now() > deadline) {
                timed_out_ = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return inner_.record(seq);
    }
    bool timed_out() const { return timed_out_; }

private:
    PeriodTemplateSource inner_;
    std::uint64_t gate_;
    std::function<bool()> open_;
    bool opened_ = false;
    bool timed_out_ = false;
};

TEST(FaultedHybrid, DropOldestTimeoutDropsEachDisplacedRecordExactlyOnce) {
    // Regression: kDropOldest with ring_timeout_s grants a drop credit and
    // then the bounded push itself can expire, dropping the same record a
    // second time via the seq gap — the stale credit later discards a live
    // record that displaced nothing. The credit must be revoked on expiry.
    //
    // Deterministic schedule: the 32-record link holds all of frame 0 (31
    // records), so frame 0 never meets a full ring, and the source holds
    // back seq 31 until the scheduled cpu.fail at frame 0's close has
    // fired. The consumer then stalls for cpu_retry_backoff_s with an empty
    // link: the producer fills it with seqs 31..62 and times out on each of
    // seqs 63..92 — exactly 30 records, all in frame 2, each dropped
    // exactly once. With the stale-credit bug the count doubles to 60.
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);  // 31 records
    const auto layout = small_layout(seq, 16);
    fault::FaultInjector faults(
        fault::FaultPlan::parse("seed=41,link.jitter=1,cpu.fail@0"));
    GatedSource source(std::vector<std::uint32_t>(layout.cells(), 1), layout, 3,
                       31, [&faults] {
                           return faults.counts().injected_at(
                                      fault::Site::kCpuFault) >= 1;
                       });
    HybridConfig cfg;
    cfg.backend = BackendKind::kCpu;
    cfg.frames = 3;
    cfg.averages = 1;
    cfg.ring_records = 32;
    cfg.batch_records = 1;  // the schedule below counts on per-record
                            // transport granularity (pop-one, process-one)
    cfg.cpu_threads = 2;
    cfg.ring_policy = RingFullPolicy::kDropOldest;
    cfg.ring_timeout_s = 0.02;
    cfg.cpu_retry_backoff_s = 1.5;  // the deterministic consumer stall
    cfg.faults = &faults;
    const auto report = HybridPipeline(seq, layout, source, cfg).run();
    EXPECT_FALSE(source.timed_out());
    EXPECT_EQ(report.frames, 3u);
    EXPECT_EQ(report.cpu_task_retries, 1u);
    EXPECT_EQ(report.records_dropped, 30u);
    EXPECT_EQ(report.frames_degraded, 1u);
    // Every timed-out push is a real stall; the histogram must see them
    // too (the timeout exit used to skip hybrid.producer_stall_ns).
    EXPECT_GE(report.producer_stall_seconds, 30 * 0.02);
    for (const auto& h : report.telemetry.histograms) {
        if (h.name == "hybrid.producer_stall_ns") {
            EXPECT_GE(h.summary.count, 30u);
        }
    }
}

// --------------------------------------------- overlap under fault grid ----

struct FaultedDigestRun {
    HybridReport report;
    std::vector<std::uint64_t> digests;
};

FaultedDigestRun faulted_run(BackendKind backend, RingFullPolicy policy,
                             const std::string& plan, bool overlap,
                             std::size_t workers = 1) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    std::vector<std::uint32_t> period(layout.cells(), 1);
    fault::FaultInjector faults(fault::FaultPlan::parse(plan));
    auto cfg = drill_config(backend, &faults, policy, 1024);
    cfg.cpu_retry_backoff_s = 0.0;
    cfg.overlap_decode = overlap;
    cfg.decode_workers = workers;
    FaultedDigestRun run;
    run.digests.assign(cfg.frames, 0);
    cfg.frame_sink = [&run](std::size_t index, const Frame& frame) {
        run.digests.at(index) = frame_digest(frame);
    };
    run.report = HybridPipeline(seq, layout, period, cfg).run();
    return run;
}

TEST(FaultedHybridOverlap, MatrixMatchesSynchronousDigests) {
    // {Block, DropNewest} x {CPU, FPGA} under link jitter + forced overruns
    // (+ an FPGA budget overrun): with the link deeper than the stream,
    // drops are exactly the forced records, so the whole degraded outcome
    // is a function of the seed — the overlap path must reproduce every
    // frame bit for bit.
    const std::string plan =
        "seed=31,link.overrun=0.02,link.jitter=0.01,fpga.overrun@1";
    for (auto backend : {BackendKind::kCpu, BackendKind::kFpga}) {
        for (auto policy :
             {RingFullPolicy::kBlock, RingFullPolicy::kDropNewest}) {
            const auto sync_run = faulted_run(backend, policy, plan, false);
            for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}}) {
                const auto overlap_run =
                    faulted_run(backend, policy, plan, true, workers);
                const auto tag =
                    std::string(backend == BackendKind::kCpu ? "cpu" : "fpga") +
                    "/" +
                    (policy == RingFullPolicy::kBlock ? "block"
                                                      : "drop_newest") +
                    "/w" + std::to_string(workers);
                EXPECT_EQ(overlap_run.digests, sync_run.digests) << tag;
                EXPECT_EQ(overlap_run.report.records_dropped,
                          sync_run.report.records_dropped)
                    << tag;
                EXPECT_EQ(overlap_run.report.frames_degraded,
                          sync_run.report.frames_degraded)
                    << tag;
                EXPECT_EQ(overlap_run.report.faults, sync_run.report.faults)
                    << tag;
            }
        }
    }
}

TEST(FaultedHybridOverlap, DropOldestReproducesCountsAndInjections) {
    // Under DropOldest the discarded record depends on what is queued at
    // credit time (deliberately a function of link state, not only of the
    // seed), so per-frame digest equality with the sync path is not defined
    // — but the drop totals and injection counts are.
    const std::string plan = "seed=32,link.overrun@2:9";
    for (auto backend : {BackendKind::kCpu, BackendKind::kFpga}) {
        const auto sync_run =
            faulted_run(backend, RingFullPolicy::kDropOldest, plan, false);
        const auto overlap_run =
            faulted_run(backend, RingFullPolicy::kDropOldest, plan, true);
        EXPECT_EQ(sync_run.report.records_dropped, 2u);
        EXPECT_EQ(overlap_run.report.records_dropped, 2u);
        EXPECT_EQ(overlap_run.report.frames, sync_run.report.frames);
        EXPECT_EQ(overlap_run.report.faults, sync_run.report.faults);
    }
}

TEST(FaultedHybridOverlap, CpuRetriesSurfaceIdentically) {
    const auto sync_run =
        faulted_run(BackendKind::kCpu, RingFullPolicy::kBlock, "cpu.fail@0", false);
    EXPECT_EQ(sync_run.report.cpu_task_retries, 1u);
    // The retry total is a function of the fault plan, not of which worker
    // happens to decode the faulted frame — per-worker backends sum.
    for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
        const auto overlap_run = faulted_run(
            BackendKind::kCpu, RingFullPolicy::kBlock, "cpu.fail@0", true,
            workers);
        EXPECT_EQ(overlap_run.digests, sync_run.digests) << workers;
        EXPECT_EQ(overlap_run.report.cpu_task_retries, 1u) << workers;
    }
}

TEST(FaultedHybridOverlap, PersistentCpuFaultPropagatesFromWorker) {
    // A decode failure on the worker must surface as the run's exception
    // after both threads joined — not a deadlock, not std::terminate.
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    std::vector<std::uint32_t> period(layout.cells(), 1);
    struct Case {
        bool overlap;
        std::size_t workers;
    };
    for (const auto c : {Case{false, 1}, Case{true, 1}, Case{true, 2}}) {
        fault::FaultInjector faults(fault::FaultPlan::parse("cpu.fail=1"));
        auto cfg = drill_config(BackendKind::kCpu, &faults,
                                RingFullPolicy::kBlock, 256);
        cfg.cpu_retry_backoff_s = 0.0;
        cfg.overlap_decode = c.overlap;
        cfg.decode_workers = c.workers;
        EXPECT_THROW(HybridPipeline(seq, layout, period, cfg).run(), Error)
            << "overlap=" << c.overlap << " workers=" << c.workers;
    }
}

TEST(FaultedHybrid, BlockPolicyWithoutFaultsMatchesFaultFreeRun) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = small_layout(seq, 8);
    std::vector<std::uint32_t> period(layout.cells(), 0);
    for (std::size_t i = 0; i < period.size(); ++i)
        period[i] = static_cast<std::uint32_t>(i % 7);

    HybridConfig base;
    base.backend = BackendKind::kCpu;
    base.frames = 2;
    base.averages = 2;
    base.cpu_threads = 2;
    const auto want = HybridPipeline(seq, layout, period, base).run();

    auto cfg = base;
    cfg.ring_policy = RingFullPolicy::kBlock;  // explicit, same as default
    const auto got = HybridPipeline(seq, layout, period, cfg).run();
    ASSERT_EQ(want.last_frame.data().size(), got.last_frame.data().size());
    for (std::size_t i = 0; i < want.last_frame.data().size(); ++i)
        EXPECT_DOUBLE_EQ(got.last_frame.data()[i], want.last_frame.data()[i]);
    EXPECT_EQ(got.records_dropped, 0u);
    EXPECT_EQ(got.faults.total_injected(), 0u);
}

}  // namespace
}  // namespace htims::pipeline
