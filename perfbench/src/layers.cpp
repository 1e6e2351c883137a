// layers.cpp — per-layer measurements from outside, for traced runs.
//
// Each layer is timed through its public functions on the workload's own
// inputs, with a span around every call. The ladder stacks the layers one
// at a time on one workload shape:
//
//   ring -> +accumulate -> +sync decode -> +overlap w2 -> fleet -> +analysis
//
// and reports each step as a fraction of the step below, so a gap between
// two steps is blamed on the layer that was added.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/fleet.hpp"
#include "pipeline/fpga.hpp"
#include "pipeline/stream_link.hpp"
#include "store/frame_store.hpp"
#include "store/replay.hpp"

namespace perfbench {

namespace hp = htims::pipeline;
namespace ha = htims::analysis;

namespace {

constexpr std::size_t kRing = 256;
constexpr std::size_t kBatch = 32;

double seconds_since(std::uint64_t t0) {
    return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Ring only: Block descriptors pointing at template rows, pushed and
/// popped in 32-record batches between two threads. No sample is touched.
double ring_msps(const StreamInput& s, std::size_t frames, Tracer& tr,
                 std::uint64_t parent) {
    ScopedSpan span(&tr, "layer.ring", parent);
    const std::size_t rows = s.layout.drift_bins;
    const std::size_t len = s.layout.mz_bins;
    const std::uint64_t total = static_cast<std::uint64_t>(frames) * kAverages * rows;
    hp::SpscRing<hp::Block> ring(kRing);
    const std::uint64_t t0 = now_ns();
    std::thread producer([&] {
        std::vector<hp::Block> stage(kBatch);
        std::uint64_t seq = 0;
        while (seq < total) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(kBatch, total - seq));
            for (std::size_t i = 0; i < n; ++i)
                stage[i] = hp::Block{s.period.data() + ((seq + i) % rows) * len, len,
                                     seq + i, false};
            std::size_t off = 0;
            while (off < n) {
                const std::size_t pushed =
                    ring.push_batch(std::span(stage).subspan(off, n - off));
                if (pushed == 0) std::this_thread::yield();
                off += pushed;
            }
            seq += n;
        }
    });
    std::vector<hp::Block> out(kBatch);
    std::uint64_t got = 0, check = 0;
    while (got < total) {
        const std::size_t n = ring.pop_batch(std::span(out));
        if (n == 0) {
            std::this_thread::yield();
            continue;
        }
        for (std::size_t i = 0; i < n; ++i) check += out[i].seq;
        got += n;
    }
    producer.join();
    const double secs = seconds_since(t0);
    if (check != total * (total - 1) / 2) std::printf("ring: sequence mismatch\n");
    return static_cast<double>(total * len) / secs * 1e-6;
}

/// Ring + accumulate: the library's own produce_stream/consume_stream
/// protocol bodies folding records into a frame; closed frames are reset,
/// never decoded.
double accumulate_msps(const StreamInput& s, std::size_t frames, Tracer& tr,
                       std::uint64_t parent) {
    ScopedSpan span(&tr, "layer.accumulate", parent);
    const std::size_t rows = s.layout.drift_bins;
    const std::size_t len = s.layout.mz_bins;
    hp::PeriodTemplateSource source(s.period, s.layout, frames, kAverages);
    hp::SpscRing<hp::Block> ring(kRing);
    source.set_window(ring.capacity() + 2 * kBatch + 2);
    const hp::LinkParams link{len,
                              rows,
                              static_cast<std::uint64_t>(frames) * kAverages * rows,
                              static_cast<std::uint64_t>(kAverages) * rows,
                              frames,
                              kBatch,
                              kBatch,
                              hp::RingFullPolicy::kBlock,
                              0.0,
                              nullptr};
    std::atomic<std::uint64_t> credits{0};
    Frame accum(s.layout);
    bool done = false;
    const std::uint64_t t0 = now_ns();
    std::thread producer([&] {
        hp::produce_stream(ring, source, link, credits,
                           hp::ProducerHooks{[](double) {}, [] {}});
    });
    const hp::ConsumeTotals totals = hp::consume_stream(
        ring, link, credits, done,
        [&](const hp::Block& b) {
            auto row = accum.record(static_cast<std::size_t>(b.seq % rows));
            for (std::size_t i = 0; i < b.size; ++i)
                row[i] += static_cast<double>(b.data[i]);
        },
        [&](std::size_t, bool) {
            const std::uint64_t c0 = now_ns();
            accum.fill(0.0);
            tr.record("accumulate.close", c0, now_ns(), span.id());
        },
        hp::ConsumerHooks{[](double) {}, [](std::size_t) {}, [] {},
                          [](std::uint64_t) {}, [] {}});
    producer.join();
    const double secs = seconds_since(t0);
    if (totals.frames_closed != frames) std::printf("accumulate: frames lost\n");
    return static_cast<double>(link.records_total * len) / secs * 1e-6;
}

/// One live CPU HybridPipeline run (the ladder's decode steps).
hp::HybridReport hybrid_run(const StreamInput& s, std::size_t frames,
                            bool overlap, Tracer& tr, const char* name,
                            std::uint64_t parent) {
    ScopedSpan span(&tr, name, parent);
    hp::HybridConfig cfg;
    cfg.backend = hp::BackendKind::kCpu;
    cfg.frames = frames;
    cfg.averages = kAverages;
    cfg.cpu_threads = 1;
    cfg.overlap_decode = overlap;
    cfg.decode_workers = overlap ? 2 : 1;
    hp::HybridPipeline pipe(s.sequence, s.layout, s.period, cfg);
    return pipe.run();
}

/// Two unpaced CPU streams over 2 shared workers, optionally with a shared
/// analysis stage at the ordered emission point.
hp::FleetReport fleet_run(const StreamInput& a, const StreamInput& b,
                          std::size_t frames, ha::AnalysisStage* stage,
                          Tracer& tr, const char* name, std::uint64_t parent) {
    ScopedSpan span(&tr, name, parent);
    std::vector<hp::FleetStream> streams;
    for (const StreamInput* s : {&a, &b}) {
        hp::HybridConfig cfg;
        cfg.backend = hp::BackendKind::kCpu;
        cfg.frames = frames;
        cfg.averages = kAverages;
        cfg.cpu_threads = 1;
        cfg.analysis = stage;
        streams.push_back(hp::FleetStream{s->sequence, s->layout, cfg, s->period, nullptr});
    }
    hp::FleetConfig fcfg;
    fcfg.decode_workers = 2;
    return hp::FleetRunner(std::move(streams), fcfg).run();
}

}  // namespace

void measure_layers(const Inputs& in, const std::string& workdir, Tracer& tr,
                    Metrics& m) {
    const StreamInput& s0 = in.streams[0];
    const StreamInput& s1 = in.streams.size() > 1 ? in.streams[1] : in.streams[0];
    const auto set_new = [&](const std::string& name, double v, const std::string& unit) {
        if (!m.has(name)) m.set(name, v, unit);
    };

    // ---- the ladder --------------------------------------------------------
    const ha::AnalysisConfig acfg = analysis_config(in);
    ha::AnalysisStage ladder_stage(acfg);
    const ha::SpectralLibrary library(ladder_stage.encoder(), in.mixture);
    ladder_stage.set_library(&library);
    double ring = 0, acc = 0, sync = 0, w2 = 0, fleet = 0, fleet_an = 0;
    hp::FleetReport fleet_report;
    {
        ScopedSpan ladder(&tr, "layer.ladder");
        ring = ring_msps(s0, 16, tr, ladder.id());
        acc = accumulate_msps(s0, 8, tr, ladder.id());
        sync = hybrid_run(s0, 6, false, tr, "ladder.sync_decode", ladder.id()).sample_rate * 1e-6;
        w2 = hybrid_run(s0, 6, true, tr, "ladder.overlap_w2", ladder.id()).sample_rate * 1e-6;
        fleet_report = fleet_run(s0, s1, 6, nullptr, tr, "ladder.fleet", ladder.id());
        fleet = fleet_report.sample_rate * 1e-6;
        fleet_an = fleet_run(s0, s1, 6, &ladder_stage, tr, "ladder.fleet_analysis",
                             ladder.id()).sample_rate * 1e-6;
    }
    m.set("ring.msps", ring, "Msamples/s");
    m.set("accumulate.msps", acc, "Msamples/s");
    m.set("ladder.sync_decode_msps", sync, "Msamples/s");
    m.set("ladder.overlap_w2_msps", w2, "Msamples/s");
    m.set("ladder.fleet_msps", fleet, "Msamples/s");
    m.set("ladder.fleet_analysis_msps", fleet_an, "Msamples/s");
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m.set("ladder.accumulate_x", ratio(acc, ring), "ratio");
    m.set("ladder.sync_decode_x", ratio(sync, acc), "ratio");
    m.set("ladder.overlap_w2_x", ratio(w2, sync), "ratio");
    m.set("ladder.fleet_x", ratio(fleet, w2), "ratio");
    m.set("ladder.analysis_x", ratio(fleet_an, fleet), "ratio");
    std::printf("ladder (Msamples/s, x = fraction of the step below):\n"
                "  ring %.1f | +accumulate %.1f (x%.3f) | +sync decode %.1f (x%.3f)"
                " | +overlap w2 %.1f (x%.3f) | fleet 2x2 %.1f (x%.3f)"
                " | +analysis %.1f (x%.3f)\n",
                ring, acc, ratio(acc, ring), sync, ratio(sync, acc), w2,
                ratio(w2, sync), fleet, ratio(fleet, w2), fleet_an,
                ratio(fleet_an, fleet));

    // Fleet figures come from the workload when it is the fleet; otherwise
    // from the ladder's fleet step.
    double f_dwait = 0, f_idle = 0;
    for (const auto& sr : fleet_report.streams) {
        f_dwait += sr.report.decode_wait_seconds;
        f_idle += sr.report.consumer_idle_seconds;
    }
    set_new("fleet.dispatch_to_emit_p50_ms", fleet_report.frame_latency.p50 * 1e-6, "ms");
    set_new("fleet.dispatch_to_emit_p99_ms", fleet_report.frame_latency.p99 * 1e-6, "ms");
    set_new("fleet.decode_wait_s", f_dwait, "s");
    set_new("fleet.consumer_idle_s", f_idle, "s");
    set_new("analysis.clusters", static_cast<double>(ladder_stage.report().clusters),
            "count");

    // ---- CPU backend ---------------------------------------------------------
    {
        ScopedSpan layer(&tr, "layer.cpu_backend");
        hp::CpuBackend cpu(s0.sequence, s0.layout, 1);
        Frame accumulated = s0.stored;
        accumulated.scale(static_cast<double>(kAverages));
        constexpr int kFrames = 4;
        double busy = 0;
        for (int i = 0; i < kFrames; ++i) {
            const std::uint64_t t0 = now_ns();
            const Frame out = cpu.deconvolve(accumulated);
            const std::uint64_t t1 = now_ns();
            tr.record("cpu_backend.deconvolve", t0, t1, layer.id());
            busy += static_cast<double>(t1 - t0) * 1e-6;
        }
        m.set("cpu_backend.decode_ms_per_frame", busy / kFrames, "ms");
        m.set("cpu_backend.frames", kFrames, "count");
    }

    // ---- FPGA model ------------------------------------------------------------
    {
        ScopedSpan layer(&tr, "layer.fpga");
        hp::FpgaPipeline fpga(s0.sequence, s0.layout, hp::FpgaConfig{});
        constexpr int kFrames = 3;
        const std::size_t len = s0.layout.mz_bins;
        double capture_ms = 0, finalize_ms = 0, cycles = 0;
        hp::FpgaCapture spent;
        for (int i = 0; i < kFrames; ++i) {
            // Record-sized pushes, as the pipeline's consumer makes them.
            const std::uint64_t t0 = now_ns();
            for (std::size_t a = 0; a < kAverages; ++a)
                for (std::size_t d = 0; d < s0.layout.drift_bins; ++d)
                    fpga.push_samples(std::span(s0.period.data() + d * len, len));
            hp::FpgaCapture cap = fpga.capture_frame(std::move(spent));
            const std::uint64_t t1 = now_ns();
            const Frame out = fpga.finalize_frame(cap);
            const std::uint64_t t2 = now_ns();
            tr.record("fpga.capture", t0, t1, layer.id());
            tr.record("fpga.finalize", t1, t2, layer.id());
            capture_ms += static_cast<double>(t1 - t0) * 1e-6;
            finalize_ms += static_cast<double>(t2 - t1) * 1e-6;
            cycles += static_cast<double>(fpga.report().total_cycles());
            spent = std::move(cap);
        }
        m.set("fpga.capture_ms_per_frame", capture_ms / kFrames, "ms");
        m.set("fpga.finalize_ms_per_frame", finalize_ms / kFrames, "ms");
        m.set("fpga.cycles_per_frame", cycles / kFrames, "count");
    }

    // ---- frame store -------------------------------------------------------------
    {
        ScopedSpan layer(&tr, "layer.store");
        const std::string path = workdir + "/layers.htstore";
        constexpr std::size_t kFrames = 4;
        double append_ms = 0;
        std::uint64_t t0 = 0, t1 = 0;
        {
            htims::store::FrameStoreWriter writer(
                path, htims::store::StoreMeta{s0.layout, kAverages});
            for (std::size_t f = 0; f < kFrames; ++f) {
                const std::uint64_t a0 = now_ns();
                const Frame& next = in.streams[f % in.streams.size()].stored;
                writer.append(next.layout() == s0.layout ? next : s0.stored, f);
                const std::uint64_t a1 = now_ns();
                tr.record("store.append", a0, a1, layer.id());
                append_ms += static_cast<double>(a1 - a0) * 1e-6;
            }
            t0 = now_ns();
            writer.finalize();
            t1 = now_ns();
            tr.record("store.finalize", t0, t1, layer.id());
        }
        m.set("store.append_ms_per_frame", append_ms / kFrames, "ms");
        m.set("store.finalize_ms", static_cast<double>(t1 - t0) * 1e-6, "ms");

        t0 = now_ns();
        const htims::store::FrameStoreReader reader(path);
        htims::store::ReplaySource replay(reader, htims::store::ReplayConfig{});
        t1 = now_ns();
        tr.record("store.open_validate", t0, t1, layer.id());
        m.set("store.open_validate_s", static_cast<double>(t1 - t0) * 1e-9, "s");

        replay.set_window(kRing + 2 * kBatch + 2);
        std::uint64_t seq = 0, sum = 0;
        t0 = now_ns();
        while (seq < replay.total_records()) {
            const auto rows = replay.record_block(seq, kBatch);
            sum += rows.front();
            seq += rows.size() / s0.layout.mz_bins;
        }
        t1 = now_ns();
        tr.record("store.record_block", t0, t1, layer.id());
        m.set("store.record_block_ns_per_record",
              static_cast<double>(t1 - t0) / static_cast<double>(seq) +
                  static_cast<double>(sum & 1u) * 1e-9,
              "ns");
        std::remove(path.c_str());
    }

    // ---- analysis --------------------------------------------------------------
    {
        ScopedSpan layer(&tr, "layer.analysis");
        const Frame& decoded = s0.cpu_ref;
        ha::AnalysisStage stage(acfg);
        stage.set_library(&library);
        constexpr int kCalls = 8;
        double profile = 0, encode = 0, search = 0, analyze = 0;
        std::uint64_t sink = 0;
        for (int i = 0; i < kCalls; ++i) {
            const std::uint64_t t0 = now_ns();
            const std::vector<double> spectrum = ha::mz_intensity_profile(decoded);
            const std::uint64_t t1 = now_ns();
            const ha::Hypervector hv = stage.encoder().encode(spectrum);
            const std::uint64_t t2 = now_ns();
            const ha::Match match = library.nearest(hv);
            const std::uint64_t t3 = now_ns();
            const ha::FrameVerdict verdict =
                stage.analyze(0, static_cast<std::uint64_t>(i), decoded);
            const std::uint64_t t4 = now_ns();
            tr.record("analysis.profile", t0, t1, layer.id());
            tr.record("analysis.encode", t1, t2, layer.id());
            tr.record("analysis.search", t2, t3, layer.id());
            tr.record("analysis.analyze", t3, t4, layer.id());
            profile += static_cast<double>(t1 - t0) * 1e-3;
            encode += static_cast<double>(t2 - t1) * 1e-3;
            search += static_cast<double>(t3 - t2) * 1e-3;
            analyze += static_cast<double>(t4 - t3) * 1e-3;
            sink += match.index + verdict.cluster;
        }
        m.set("analysis.profile_us", profile / kCalls, "us");
        m.set("analysis.encode_us", encode / kCalls, "us");
        m.set("analysis.search_us", search / kCalls + static_cast<double>(sink & 1u) * 1e-9,
              "us");
        m.set("analysis.analyze_us", analyze / kCalls, "us");
    }
}

}  // namespace perfbench
