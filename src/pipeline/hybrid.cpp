#include "pipeline/hybrid.hpp"

#include <algorithm>

#include "analysis/stage.hpp"
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "pipeline/stream_link.hpp"
#include "pipeline/turnstile.hpp"
#include "telemetry/telemetry.hpp"

namespace htims::pipeline {

PeriodTemplateSource::PeriodTemplateSource(std::vector<std::uint32_t> period_samples,
                                           const FrameLayout& layout,
                                           std::uint64_t frames,
                                           std::uint64_t averages)
    : period_samples_(std::move(period_samples)),
      record_len_(layout.mz_bins),
      records_per_period_(layout.drift_bins),
      total_records_(frames * averages * layout.drift_bins) {
    if (period_samples_.size() != layout.cells())
        throw ConfigError("period sample template must have layout.cells() entries");
}

std::span<const std::uint32_t> PeriodTemplateSource::record(std::uint64_t seq) {
    const std::size_t record_in_period =
        static_cast<std::size_t>(seq % records_per_period_);
    return std::span(period_samples_.data() + record_in_period * record_len_,
                     record_len_);
}

std::span<const std::uint32_t> PeriodTemplateSource::record_block(
    std::uint64_t seq, std::size_t max_records) {
    // Rows are contiguous until the template wraps at the period boundary.
    const std::size_t record_in_period =
        static_cast<std::size_t>(seq % records_per_period_);
    const std::size_t k =
        std::min(max_records, records_per_period_ - record_in_period);
    return std::span(period_samples_.data() + record_in_period * record_len_,
                     k * record_len_);
}

std::vector<std::uint32_t> to_period_samples(const Frame& raw, std::size_t averages) {
    HTIMS_EXPECTS(averages >= 1);
    std::vector<std::uint32_t> samples(raw.data().size());
    const double inv = 1.0 / static_cast<double>(averages);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double v = std::max(0.0, raw.data()[i] * inv);
        samples[i] = static_cast<std::uint32_t>(std::llround(v));
    }
    return samples;
}

namespace {

void validate_hybrid_config(const HybridConfig& config) {
    if (config.frames == 0 || config.averages == 0)
        throw ConfigError("hybrid run needs frames >= 1 and averages >= 1");
    if (config.ring_timeout_s < 0.0)
        throw ConfigError("ring_timeout_s cannot be negative");
    if (config.cpu_max_retries < 0)
        throw ConfigError("cpu_max_retries cannot be negative");
    if (config.overlap_decode && config.decode_buffers < 2)
        throw ConfigError("overlap_decode needs decode_buffers >= 2");
    if (config.batch_records == 0)
        throw ConfigError("batch_records must be >= 1");
    if (config.decode_workers == 0)
        throw ConfigError("decode_workers must be >= 1");
}

}  // namespace

HybridPipeline::HybridPipeline(const prs::OversampledPrs& sequence,
                               const FrameLayout& layout,
                               std::vector<std::uint32_t> period_samples,
                               const HybridConfig& config)
    : sequence_(sequence), layout_(layout), config_(config) {
    validate_hybrid_config(config);
    template_source_.emplace(std::move(period_samples), layout,
                             config.frames, config.averages);
    source_ = &*template_source_;
}

HybridPipeline::HybridPipeline(const prs::OversampledPrs& sequence,
                               const FrameLayout& layout, RecordSource& source,
                               const HybridConfig& config)
    : sequence_(sequence), layout_(layout), source_(&source), config_(config) {
    validate_hybrid_config(config);
    const std::uint64_t expected = static_cast<std::uint64_t>(config.frames) *
                                   config.averages * layout.drift_bins;
    if (source.total_records() != expected)
        throw ConfigError("record source delivers " +
                          std::to_string(source.total_records()) +
                          " records; the configured run streams " +
                          std::to_string(expected));
}

HybridReport HybridPipeline::run() {
    const std::size_t record_len = layout_.mz_bins;
    const std::size_t records_per_period = layout_.drift_bins;
    const std::uint64_t records_total = static_cast<std::uint64_t>(config_.frames) *
                                        config_.averages * records_per_period;
    HTIMS_CHECK(record_len > 0 && records_per_period > 0, "stream layout is non-empty");
    HTIMS_CHECK(records_total > 0, "a hybrid run streams at least one record");

    auto& tel = telemetry::Registry::global();
    static auto& c_records = tel.counter("hybrid.records");
    static auto& c_frames = tel.counter("hybrid.frames");
    static auto& c_stalls = tel.counter("hybrid.producer_stalls");
    static auto& c_idles = tel.counter("hybrid.consumer_idles");
    static auto& c_rec_dropped = tel.counter("hybrid.records_dropped");
    static auto& c_frames_degraded = tel.counter("hybrid.frames_degraded");
    static auto& c_jitter = tel.counter("hybrid.link_jitter_events");
    static auto& g_ring = tel.gauge("hybrid.ring_occupancy");
    static auto& g_decode_q = tel.gauge("hybrid.decode_queue_depth");
    static auto& h_ring = tel.histogram("hybrid.ring_occupancy");
    static auto& h_decode_q = tel.histogram("hybrid.decode_queue_depth");
    static auto& h_stall = tel.histogram("hybrid.producer_stall_ns");
    static auto& h_idle = tel.histogram("hybrid.consumer_idle_ns");
    static auto& h_frame = tel.histogram("hybrid.frame_ns");
    static auto& h_overlap = tel.histogram("hybrid.decode_overlap_ns");
    static auto& h_dwait = tel.histogram("hybrid.decode_wait_ns");
    static auto& h_batch = tel.histogram("hybrid.batch_size");
    static const auto kStageRun = tel.intern("hybrid.run");
    static const auto kStageFrame = tel.intern("hybrid.frame");
    static const auto kStageDecode = tel.intern("hybrid.decode_worker");
    const bool tel_on = telemetry::kCompiledIn && tel.enabled();
    auto run_span = tel.span(kStageRun);

    SpscRing<Block> ring(config_.ring_records);
    HybridReport report;
    report.last_frame = Frame(layout_);
    HTIMS_CHECK(source_ != nullptr && source_->total_records() == records_total,
                "record source matches the configured stream");
    // Batch sizing: the producer stages up to batch_cap records per ring
    // publication and the consumer pops the same amount per protocol round
    // trip. batch_records = 1 restores the per-record transport exactly —
    // including its backpressure granularity (the consumer never holds
    // popped-but-unprocessed records).
    const std::size_t batch_cap =
        std::max<std::size_t>(1, std::min(config_.batch_records, ring.capacity()));
    const std::size_t consume_cap = batch_cap;
    // Ring capacity (rounded up to a power of two) + the producer's staged
    // batch + the consumer's popped batch + the blocks in either thread's
    // hands: the most record spans ever outstanding at once.
    source_->set_window(ring.capacity() + batch_cap + consume_cap + 2);

    fault::FaultInjector* faults = config_.faults;
    // kDropOldest: the producer cannot pop an SPSC ring, so it grants the
    // consumer a "drop credit" instead — the consumer discards its next
    // (i.e. oldest queued) record per credit, which is exactly the record
    // that has waited longest on the link.
    alignas(kCacheLine) std::atomic<std::uint64_t> drop_credits{0};

    const std::uint64_t records_per_frame =
        static_cast<std::uint64_t>(config_.averages) * records_per_period;

    // The transport protocol bodies live in pipeline/stream_link.hpp, shared
    // verbatim with the fleet runner; only the accounting hooks differ (the
    // hybrid path feeds the global telemetry registry and its report).
    const LinkParams link{record_len,
                          records_per_period,
                          records_total,
                          records_per_frame,
                          config_.frames,
                          batch_cap,
                          consume_cap,
                          config_.ring_policy,
                          config_.ring_timeout_s,
                          faults};

    double producer_stall = 0.0;
    std::thread producer([&] {
        produce_stream(ring, *source_, link, drop_credits,
                       ProducerHooks{
                           [&](double stalled) {
                               producer_stall += stalled;
                               if (tel_on) {
                                   c_stalls.increment();
                                   h_stall.observe(static_cast<std::uint64_t>(
                                       stalled * 1e9));
                               }
                           },
                           [&] {
                               if (tel_on) c_jitter.increment();
                           },
                       });
    });

    WallTimer wall;

    // Frame-completion telemetry mark. Whichever thread finishes decodes
    // owns one instance (the consumer synchronously, the decode worker in
    // overlap mode); each instance measures the gap between its own calls.
    const auto make_frame_marker = [&] {
        return [&, start_ns = tel_on ? telemetry::now_ns() : 0]() mutable {
            if (!tel_on) return;
            c_frames.increment();
            const std::uint64_t now = telemetry::now_ns();
            h_frame.observe(now - start_ns);
            tel.trace().record(telemetry::SpanEvent{
                kStageFrame, telemetry::thread_slot(), 1, start_ns, now});
            start_ns = now;
        };
    };

    // Backend-agnostic consumer: `accumulate` folds one record in,
    // `close_frame(index, more_frames)` finishes the frame currently being
    // assembled. The protocol body (consume_stream) lives in
    // pipeline/stream_link.hpp, shared with the fleet runner; the hooks
    // sample ring occupancy as it pops — the reading the paper's
    // backpressure argument cares about.
    bool stream_done = false;  // consumer saw the end sentinel
    const auto consume = [&](auto&& accumulate, auto&& close_frame) {
        const ConsumeTotals totals = consume_stream(
            ring, link, drop_credits, stream_done,
            std::forward<decltype(accumulate)>(accumulate),
            std::forward<decltype(close_frame)>(close_frame),
            ConsumerHooks{
                [&](double idled) {
                    report.consumer_idle_seconds += idled;
                    if (tel_on) {
                        c_idles.increment();
                        h_idle.observe(static_cast<std::uint64_t>(idled * 1e9));
                    }
                },
                [&](std::size_t got) {
                    if (tel_on) {
                        const auto depth = static_cast<std::int64_t>(ring.size());
                        g_ring.set(depth);
                        h_ring.observe(static_cast<std::uint64_t>(depth));
                        h_batch.observe(got);
                    }
                },
                [&] {
                    if (tel_on) c_records.increment();
                },
                [&](std::uint64_t n) {
                    if (tel_on) c_rec_dropped.add(static_cast<std::int64_t>(n));
                },
                [&] {
                    if (tel_on) c_frames_degraded.increment();
                },
            });
        report.frames += totals.frames_closed;
        report.records_dropped += totals.records_dropped;
        report.frames_degraded += totals.frames_degraded;
    };

    // Any consumer-side failure must still join the producer before it
    // propagates, and an overlap decode worker must be joined before its
    // channel leaves scope — hence the try blocks below.
    std::exception_ptr failure;
    try {
        if (config_.backend == BackendKind::kFpga) {
            FpgaPipeline fpga(sequence_, layout_, config_.fpga);
            if (faults != nullptr) fpga.set_faults(faults);
            fpga.begin_frame();
            if (!config_.overlap_decode) {
                auto frame_mark = make_frame_marker();
                consume(
                    [&](const Block& block) {
                        fpga.push_samples(std::span(block.data, block.size));
                    },
                    [&](std::size_t index, bool more_frames) {
                        report.last_frame = fpga.end_frame();
                        report.fpga = fpga.report();
                        if (config_.frame_sink)
                            config_.frame_sink(index, report.last_frame);
                        if (config_.analysis)
                            config_.analysis->analyze(0, index,
                                                      report.last_frame);
                        frame_mark();
                        if (more_frames) fpga.begin_frame();
                    });
            } else {
                // Overlapped decode: each closed frame's capture detaches
                // from the pipeline so finalize (the whole fixed-point
                // decode) runs on a worker while the next frame's samples
                // stream into fresh bins. With decode_workers > 1 the
                // finalizes run concurrently on private pipelines (same
                // config → bit-identical integer decode) and the emitter
                // turnstile restores frame order.
                struct Job {
                    std::size_t index = 0;
                    FpgaCapture capture;
                };
                DecodeChannel<Job> channel;
                const std::size_t workers_n = config_.decode_workers;
                const std::size_t buffers =
                    std::max(config_.decode_buffers, workers_n + 1);
                for (std::size_t i = 0; i + 1 < buffers; ++i)
                    channel.push_free(Job{});  // bins allocated on first recycle

                OrderTurnstile<> emitter;
                auto frame_mark = make_frame_marker();  // shared: called only
                                                        // inside the ordered
                                                        // emission section
                std::mutex failure_mutex;
                std::exception_ptr worker_failure;
                std::vector<std::thread> workers;
                workers.reserve(workers_n);
                for (std::size_t w = 0; w < workers_n; ++w) {
                    workers.emplace_back([&] {
                        try {
                            // Extra workers finalize on private pipelines;
                            // the single-worker path keeps using the shared
                            // one (finalize is thread-safe against the
                            // consumer's capture, one finalize at a time).
                            std::optional<FpgaPipeline> local;
                            FpgaPipeline* decoder = &fpga;
                            if (workers_n > 1) {
                                local.emplace(sequence_, layout_, config_.fpga);
                                decoder = &*local;
                            }
                            while (auto job = channel.pop_work()) {
                                const std::uint64_t t0 =
                                    tel_on ? telemetry::now_ns() : 0;
                                Frame decoded;
                                {
                                    auto decode_span = tel.span(kStageDecode);
                                    decoded = decoder->finalize_frame(job->capture);
                                }
                                if (tel_on)
                                    h_overlap.observe(telemetry::now_ns() - t0);
                                if (emitter.wait_turn(job->index)) {
                                    report.fpga = decoder->report();
                                    if (config_.frame_sink)
                                        config_.frame_sink(job->index, decoded);
                                    if (config_.analysis)
                                        config_.analysis->analyze(
                                            0, job->index, decoded);
                                    report.last_frame = std::move(decoded);
                                    frame_mark();
                                    emitter.advance();
                                }
                                channel.push_free(std::move(*job));
                            }
                        } catch (...) {
                            {
                                std::lock_guard lock(failure_mutex);
                                if (!worker_failure)
                                    worker_failure = std::current_exception();
                            }
                            emitter.abort();  // release peers waiting a turn
                            channel.abort();  // wake a consumer stuck in pop_free
                            while (channel.pop_work()) {
                            }  // drain handoffs until the consumer closes
                        }
                    });
                }
                bool decode_down = false;
                try {
                    consume(
                        [&](const Block& block) {
                            if (decode_down) return;
                            fpga.push_samples(std::span(block.data, block.size));
                        },
                        [&](std::size_t index, bool /*more_frames*/) {
                            if (decode_down) return;
                            WallTimer wait;
                            auto spent = channel.pop_free();
                            const double waited = wait.seconds();
                            report.decode_wait_seconds += waited;
                            if (tel_on)
                                h_dwait.observe(
                                    static_cast<std::uint64_t>(waited * 1e9));
                            if (!spent) {
                                decode_down = true;  // worker died; keep draining
                                return;
                            }
                            const std::size_t depth = channel.push_work(Job{
                                index, fpga.capture_frame(std::move(spent->capture))});
                            if (tel_on) {
                                g_decode_q.set(static_cast<std::int64_t>(depth));
                                h_decode_q.observe(depth);
                            }
                        });
                } catch (...) {
                    channel.close();
                    for (auto& worker : workers) worker.join();
                    throw;
                }
                channel.close();
                for (auto& worker : workers) worker.join();
                if (worker_failure) std::rethrow_exception(worker_failure);
            }
        } else {
            if (!config_.overlap_decode) {
                CpuBackend cpu(sequence_, layout_, config_.cpu_threads);
                if (faults != nullptr)
                    cpu.set_faults(faults, config_.cpu_max_retries,
                                   config_.cpu_retry_backoff_s);
                auto frame_mark = make_frame_marker();
                Frame accum(layout_);
                consume(
                    [&](const Block& block) {
                        const std::size_t record_in_period =
                            static_cast<std::size_t>(block.seq % records_per_period);
                        auto row = accum.record(record_in_period);
                        for (std::size_t i = 0; i < block.size; ++i)
                            row[i] += static_cast<double>(block.data[i]);
                    },
                    [&](std::size_t index, bool /*more_frames*/) {
                        report.last_frame = cpu.deconvolve(accum);
                        if (config_.frame_sink)
                            config_.frame_sink(index, report.last_frame);
                        if (config_.analysis)
                            config_.analysis->analyze(0, index,
                                                      report.last_frame);
                        frame_mark();
                        accum.fill(0.0);
                    });
                report.cpu_task_retries = cpu.task_retries();
            } else {
                // Overlapped decode: the consumer hands the accumulated
                // frame off and resumes popping into a recycled buffer.
                // Each worker deconvolves on its own backend (deconvolve is
                // one-frame-at-a-time per backend; the output is a pure
                // function of the frame, so any worker count is
                // bit-identical) and the emitter turnstile keeps results in
                // frame order.
                struct Job {
                    std::size_t index = 0;
                    Frame frame;
                };
                DecodeChannel<Job> channel;
                const std::size_t workers_n = config_.decode_workers;
                const std::size_t buffers =
                    std::max(config_.decode_buffers, workers_n + 1);
                for (std::size_t i = 0; i + 1 < buffers; ++i)
                    channel.push_free(Job{0, Frame(layout_)});
                Frame accum(layout_);

                // Split the decode thread budget across the workers; a
                // single worker keeps the exact configured count.
                const std::size_t total_threads =
                    config_.cpu_threads > 0
                        ? config_.cpu_threads
                        : std::max<std::size_t>(
                              1, std::thread::hardware_concurrency());
                const std::size_t per_worker =
                    workers_n > 1
                        ? std::max<std::size_t>(1, total_threads / workers_n)
                        : config_.cpu_threads;
                std::vector<std::unique_ptr<CpuBackend>> decoders;
                decoders.reserve(workers_n);
                for (std::size_t w = 0; w < workers_n; ++w) {
                    decoders.push_back(std::make_unique<CpuBackend>(
                        sequence_, layout_, per_worker));
                    if (faults != nullptr)
                        decoders.back()->set_faults(faults,
                                                    config_.cpu_max_retries,
                                                    config_.cpu_retry_backoff_s);
                }

                OrderTurnstile<> emitter;
                auto frame_mark = make_frame_marker();  // shared: called only
                                                        // inside the ordered
                                                        // emission section
                std::mutex failure_mutex;
                std::exception_ptr worker_failure;
                std::vector<std::thread> workers;
                workers.reserve(workers_n);
                for (std::size_t w = 0; w < workers_n; ++w) {
                    workers.emplace_back([&, w] {
                        try {
                            CpuBackend& decoder = *decoders[w];
                            while (auto job = channel.pop_work()) {
                                const std::uint64_t t0 =
                                    tel_on ? telemetry::now_ns() : 0;
                                Frame decoded;
                                {
                                    auto decode_span = tel.span(kStageDecode);
                                    decoded = decoder.deconvolve(job->frame);
                                }
                                if (tel_on)
                                    h_overlap.observe(telemetry::now_ns() - t0);
                                if (emitter.wait_turn(job->index)) {
                                    if (config_.frame_sink)
                                        config_.frame_sink(job->index, decoded);
                                    if (config_.analysis)
                                        config_.analysis->analyze(
                                            0, job->index, decoded);
                                    report.last_frame = std::move(decoded);
                                    frame_mark();
                                    emitter.advance();
                                }
                                job->frame.fill(0.0);
                                channel.push_free(std::move(*job));
                            }
                        } catch (...) {
                            {
                                std::lock_guard lock(failure_mutex);
                                if (!worker_failure)
                                    worker_failure = std::current_exception();
                            }
                            emitter.abort();
                            channel.abort();
                            while (channel.pop_work()) {
                            }
                        }
                    });
                }
                bool decode_down = false;
                try {
                    consume(
                        [&](const Block& block) {
                            if (decode_down) return;  // accum was handed off
                            const std::size_t record_in_period =
                                static_cast<std::size_t>(block.seq %
                                                         records_per_period);
                            auto row = accum.record(record_in_period);
                            for (std::size_t i = 0; i < block.size; ++i)
                                row[i] += static_cast<double>(block.data[i]);
                        },
                        [&](std::size_t index, bool more_frames) {
                            if (decode_down) return;
                            const std::size_t depth =
                                channel.push_work(Job{index, std::move(accum)});
                            if (tel_on) {
                                g_decode_q.set(static_cast<std::int64_t>(depth));
                                h_decode_q.observe(depth);
                            }
                            if (!more_frames) return;
                            WallTimer wait;
                            auto spent = channel.pop_free();
                            const double waited = wait.seconds();
                            report.decode_wait_seconds += waited;
                            if (tel_on)
                                h_dwait.observe(
                                    static_cast<std::uint64_t>(waited * 1e9));
                            if (!spent) {
                                decode_down = true;
                                return;
                            }
                            accum = std::move(spent->frame);
                        });
                } catch (...) {
                    channel.close();
                    for (auto& worker : workers) worker.join();
                    throw;
                }
                channel.close();
                for (auto& worker : workers) worker.join();
                if (worker_failure) std::rethrow_exception(worker_failure);
                for (const auto& decoder : decoders)
                    report.cpu_task_retries += decoder->task_retries();
            }
        }
    } catch (...) {
        failure = std::current_exception();
        // Drain the link so the producer can deliver its sentinel and be
        // joined below.
        if (!stream_done) drain_to_end(ring);
    }

    producer.join();
    if (failure) std::rethrow_exception(failure);
    // Lossless-handoff postconditions, degraded-mode aware: the ring fully
    // drained, every configured frame was closed, and nothing was dropped
    // unless a drop policy or an injected fault was in play.
    HTIMS_CHECK(ring.empty(), "stream fully drained at end of run");
    HTIMS_CHECK(report.frames == config_.frames, "every configured frame was closed");
    HTIMS_CHECK(report.records_dropped == 0 ||
                    config_.ring_policy != RingFullPolicy::kBlock ||
                    config_.ring_timeout_s > 0.0 || faults != nullptr,
                "unbounded Block policy without faults never drops records");
    report.wall_seconds = wall.seconds();
    report.producer_stall_seconds = producer_stall;
    report.samples = records_total * record_len;
    report.sample_rate =
        report.wall_seconds > 0.0
            ? static_cast<double>(report.samples) / report.wall_seconds
            : 0.0;
    if (faults != nullptr) report.faults = faults->counts();
    if (tel_on) report.telemetry = tel.snapshot();
    return report;
}

}  // namespace htims::pipeline
