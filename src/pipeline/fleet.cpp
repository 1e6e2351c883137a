#include "pipeline/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/stage.hpp"
#include "common/aligned_buffer.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "pipeline/mpmc_queue.hpp"
#include "pipeline/stream_link.hpp"
#include "pipeline/turnstile.hpp"
#include "telemetry/json.hpp"
#include "telemetry/trace.hpp"

namespace htims::pipeline {

namespace {

/// One closed frame in flight from a stream consumer to the decode pool.
/// Exactly one of `frame` (CPU backend: the accumulated raw frame) and
/// `capture` (FPGA backend: the detached capture) is live — the stream's
/// backend says which.
struct DispatchJob {
    std::uint32_t stream = 0;
    std::size_t index = 0;         ///< frame index within the stream
    std::uint64_t dispatch_ns = 0; ///< when the consumer dispatched it
    Frame frame;
    FpgaCapture capture;
};

/// Per-stream telemetry shard. Cache-line-aligned so neighbouring streams'
/// hot emission counters never share a line (SNIPPETS.md's sharded-counter
/// lesson: unsharded fleet counters collapse under worker contention).
struct alignas(kCacheLine) StreamShard {
    explicit StreamShard(const std::atomic<bool>* enabled) : latency(enabled) {}
    telemetry::LogHistogram latency;  ///< ns, dispatch -> ordered emission
    std::atomic<std::uint64_t> frames_emitted{0};
};

/// Everything one stream owns for the duration of run(). Heap-held (the
/// shard and ring are neither movable nor copyable); thread roles:
/// the producer thread writes producer_stall_s; the consumer thread owns
/// totals/stream_done/decode_wait_s/consumer_idle_s/failure; last_frame /
/// fpga / last_emit_ns are written only inside the turnstile-serialized
/// emission section (the release-advance/acquire-observe edge orders them
/// worker-to-worker, and the final join publishes them to the caller).
struct StreamState {
    StreamState(const FleetStream& s, std::uint32_t index,
                const std::atomic<bool>* stats)
        : spec(s), id(index), ring(s.config.ring_records), shard(stats) {}

    const FleetStream& spec;
    const std::uint32_t id;
    SpscRing<Block> ring;
    std::optional<PeriodTemplateSource> template_source;
    RecordSource* source = nullptr;
    LinkParams link{};
    std::size_t buffers = 2;  ///< this stream's frames-in-flight bound

    OrderTurnstile<> turnstile;
    DecodeChannel<DispatchJob> free_pool;  ///< free half only; work travels
                                           ///< through the shared MPMC queue
    StreamShard shard;
    alignas(kCacheLine) std::atomic<std::uint64_t> drop_credits{0};

    // Producer-thread-owned.
    double producer_stall_s = 0.0;

    // Consumer-thread-owned (read by the caller after the joins).
    double consumer_idle_s = 0.0;
    double decode_wait_s = 0.0;
    ConsumeTotals totals{};
    bool stream_done = false;
    std::exception_ptr failure;

    // Emission-section-owned (turnstile-serialized).
    Frame last_frame;
    FpgaCycleReport fpga{};
    std::uint64_t last_emit_ns = 0;
};

void validate_fleet(const std::vector<FleetStream>& streams,
                    const FleetConfig& config) {
    if (streams.empty())
        throw ConfigError("a fleet needs at least one stream");
    if (config.decode_workers == 0)
        throw ConfigError("fleet decode_workers must be >= 1");
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const std::string tag = "fleet stream " + std::to_string(i);
        const auto& spec = streams[i];
        const auto& cfg = spec.config;
        if (cfg.frames == 0 || cfg.averages == 0)
            throw ConfigError(tag + " needs frames >= 1 and averages >= 1");
        if (cfg.ring_timeout_s < 0.0)
            throw ConfigError(tag + ": ring_timeout_s cannot be negative");
        if (cfg.cpu_max_retries < 0)
            throw ConfigError(tag + ": cpu_max_retries cannot be negative");
        if (cfg.batch_records == 0)
            throw ConfigError(tag + ": batch_records must be >= 1");
        if (spec.layout.mz_bins == 0 || spec.layout.drift_bins == 0)
            throw ConfigError(tag + ": stream layout is empty");
        const std::uint64_t expected = static_cast<std::uint64_t>(cfg.frames) *
                                       cfg.averages * spec.layout.drift_bins;
        if (spec.source != nullptr) {
            if (spec.source->total_records() != expected)
                throw ConfigError(tag + ": record source delivers " +
                                  std::to_string(spec.source->total_records()) +
                                  " records; the configured run streams " +
                                  std::to_string(expected));
        } else if (spec.period_samples.size() != spec.layout.cells()) {
            throw ConfigError(tag +
                              ": period sample template must have "
                              "layout.cells() entries");
        }
    }
}

telemetry::JsonValue summary_json(const telemetry::HistogramSummary& s) {
    telemetry::JsonValue v{telemetry::JsonValue::Object{}};
    v.set("count", s.count);
    v.set("min", s.min);
    v.set("max", s.max);
    v.set("mean", s.mean);
    v.set("p50", s.p50);
    v.set("p95", s.p95);
    v.set("p99", s.p99);
    return v;
}

}  // namespace

std::string fleet_report_json(const FleetReport& report) {
    using telemetry::JsonValue;
    JsonValue root{JsonValue::Object{}};
    root.set("schema", "htims.fleet.v1");

    JsonValue aggregate{JsonValue::Object{}};
    aggregate.set("streams", static_cast<std::uint64_t>(report.streams.size()));
    aggregate.set("wall_seconds", report.wall_seconds);
    aggregate.set("frames", report.frames);
    aggregate.set("samples", report.samples);
    aggregate.set("sample_rate", report.sample_rate);
    aggregate.set("records_dropped", report.records_dropped);
    aggregate.set("frames_degraded", report.frames_degraded);
    aggregate.set("frame_latency_ns", summary_json(report.frame_latency));
    root.set("aggregate", std::move(aggregate));

    JsonValue::Array streams;
    streams.reserve(report.streams.size());
    for (std::size_t i = 0; i < report.streams.size(); ++i) {
        const auto& sr = report.streams[i];
        JsonValue entry{JsonValue::Object{}};
        entry.set("index", static_cast<std::uint64_t>(i));
        entry.set("frames", sr.report.frames);
        entry.set("samples", sr.report.samples);
        entry.set("wall_seconds", sr.report.wall_seconds);
        entry.set("sample_rate", sr.report.sample_rate);
        entry.set("records_dropped", sr.report.records_dropped);
        entry.set("frames_degraded", sr.report.frames_degraded);
        entry.set("cpu_task_retries", sr.report.cpu_task_retries);
        entry.set("producer_stall_seconds", sr.report.producer_stall_seconds);
        entry.set("consumer_idle_seconds", sr.report.consumer_idle_seconds);
        entry.set("decode_wait_seconds", sr.report.decode_wait_seconds);
        entry.set("frame_latency_ns", summary_json(sr.frame_latency));
        streams.push_back(std::move(entry));
    }
    root.set("streams", JsonValue(std::move(streams)));
    return root.dump(2);
}

FleetRunner::FleetRunner(std::vector<FleetStream> streams,
                         const FleetConfig& config)
    : streams_(std::move(streams)), config_(config) {
    validate_fleet(streams_, config_);
}

FleetReport FleetRunner::run() {
    const std::size_t n = streams_.size();
    const std::size_t workers_n = config_.decode_workers;
    std::atomic<bool> stats_on{true};
    telemetry::LogHistogram agg_latency(&stats_on);

    // --- Per-stream setup -------------------------------------------------
    std::vector<std::unique_ptr<StreamState>> states;
    states.reserve(n);
    std::size_t inflight_total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        auto& spec = streams_[i];
        const auto& cfg = spec.config;
        auto st = std::make_unique<StreamState>(
            spec, static_cast<std::uint32_t>(i), &stats_on);

        const std::size_t record_len = spec.layout.mz_bins;
        const std::size_t records_per_period = spec.layout.drift_bins;
        const std::uint64_t records_total =
            static_cast<std::uint64_t>(cfg.frames) * cfg.averages *
            records_per_period;
        if (spec.source != nullptr) {
            st->source = spec.source;
        } else {
            st->template_source.emplace(spec.period_samples, spec.layout,
                                        cfg.frames, cfg.averages);
            st->source = &*st->template_source;
        }

        // Same batch sizing and retention window as the solo orchestrator:
        // transport behaviour (and therefore the digests) must match it.
        const std::size_t batch_cap = std::max<std::size_t>(
            1, std::min(cfg.batch_records, st->ring.capacity()));
        st->source->set_window(st->ring.capacity() + 2 * batch_cap + 2);
        st->link = LinkParams{record_len,
                              records_per_period,
                              records_total,
                              static_cast<std::uint64_t>(cfg.averages) *
                                  records_per_period,
                              cfg.frames,
                              batch_cap,
                              batch_cap,
                              cfg.ring_policy,
                              cfg.ring_timeout_s,
                              cfg.faults};

        // decode_buffers bounds this stream's frames in flight: one
        // accumulating at the consumer plus buffers-1 queued or decoding.
        st->buffers = std::max<std::size_t>(cfg.decode_buffers, 2);
        for (std::size_t b = 0; b + 1 < st->buffers; ++b) {
            if (cfg.backend == BackendKind::kFpga)
                st->free_pool.push_free(DispatchJob{});  // bins allocated on
                                                         // first recycle
            else
                st->free_pool.push_free(
                    DispatchJob{0, 0, 0, Frame(spec.layout), {}});
        }
        inflight_total += st->buffers - 1;
        states.push_back(std::move(st));
    }

    // The auto-sized dispatch queue can hold every frame that can possibly
    // be in flight at once, so a full queue (consumer-side backpressure)
    // only happens when the caller asked for a smaller dispatch_depth.
    const std::size_t depth = config_.dispatch_depth > 0
                                  ? config_.dispatch_depth
                                  : std::max<std::size_t>(2, inflight_total);
    MpmcQueue<DispatchJob> queue(depth);

    // Consumers still running; workers exit once this hits zero AND the
    // queue is drained. Each consumer decrements with release after its
    // last enqueue, so a worker's acquire read of zero also sees every
    // published slot ticket — no job can be missed. The last consumer then
    // rings the queue's pop-side doorbell, so parked workers re-check.
    std::atomic<std::size_t> active{n};
    std::mutex failure_mutex;
    std::exception_ptr pool_failure;
    std::atomic<bool> decode_down{false};

    WallTimer wall;
    const std::uint64_t run_start_ns = telemetry::now_ns();

    // --- Producers --------------------------------------------------------
    std::vector<std::thread> producers;
    producers.reserve(n);
    for (auto& stp : states) {
        producers.emplace_back([st = stp.get()] {
            produce_stream(st->ring, *st->source, st->link, st->drop_credits,
                           ProducerHooks{
                               [st](double stalled) {
                                   st->producer_stall_s += stalled;
                               },
                               [] {},
                           });
        });
    }

    // --- Consumers --------------------------------------------------------
    std::vector<std::thread> consumers;
    consumers.reserve(n);
    for (auto& stp : states) {
        consumers.emplace_back([st = stp.get(), &queue, &active] {
            const auto& cfg = st->spec.config;
            // Blocking enqueue: a full dispatch queue stalls only this
            // stream (its ring then fills and its producer stalls — the
            // backpressure chain stays stream-local).
            const auto dispatch = [&](DispatchJob job) {
                job.dispatch_ns = telemetry::now_ns();
                if (!queue.try_push(std::move(job))) {
                    WallTimer wait;
                    do {
                        queue.wait_for_slot();
                    } while (!queue.try_push(std::move(job)));
                    st->decode_wait_s += wait.seconds();
                }
            };
            const auto hooks = ConsumerHooks{
                [st](double idled) { st->consumer_idle_s += idled; },
                [](std::size_t) {},
                [] {},
                [](std::uint64_t) {},
                [] {},
            };
            try {
                bool down = false;  // decode pool died; drain without dispatch
                if (cfg.backend == BackendKind::kFpga) {
                    FpgaPipeline fpga(st->spec.sequence, st->spec.layout,
                                      cfg.fpga);
                    if (cfg.faults != nullptr) fpga.set_faults(cfg.faults);
                    fpga.begin_frame();
                    st->totals = consume_stream(
                        st->ring, st->link, st->drop_credits, st->stream_done,
                        [&](const Block& block) {
                            if (down) return;
                            fpga.push_samples(std::span(block.data, block.size));
                        },
                        [&](std::size_t index, bool /*more_frames*/) {
                            if (down) return;
                            WallTimer wait;
                            auto spent = st->free_pool.pop_free();
                            st->decode_wait_s += wait.seconds();
                            if (!spent) {
                                down = true;
                                return;
                            }
                            dispatch(DispatchJob{
                                st->id, index, 0, {},
                                fpga.capture_frame(std::move(spent->capture))});
                        },
                        hooks);
                } else {
                    Frame accum(st->spec.layout);
                    const std::size_t records_per_period =
                        st->link.records_per_period;
                    st->totals = consume_stream(
                        st->ring, st->link, st->drop_credits, st->stream_done,
                        [&](const Block& block) {
                            if (down) return;  // accum was handed off
                            const std::size_t record_in_period =
                                static_cast<std::size_t>(block.seq %
                                                         records_per_period);
                            auto row = accum.record(record_in_period);
                            for (std::size_t i = 0; i < block.size; ++i)
                                row[i] += static_cast<double>(block.data[i]);
                        },
                        [&](std::size_t index, bool more_frames) {
                            if (down) return;
                            dispatch(DispatchJob{st->id, index, 0,
                                                 std::move(accum), {}});
                            if (!more_frames) return;
                            WallTimer wait;
                            auto spent = st->free_pool.pop_free();
                            st->decode_wait_s += wait.seconds();
                            if (!spent) {
                                down = true;
                                return;
                            }
                            accum = std::move(spent->frame);
                        },
                        hooks);
                }
            } catch (...) {
                st->failure = std::current_exception();
                // Drain the link so the producer can deliver its sentinel.
                if (!st->stream_done) drain_to_end(st->ring);
            }
            // The last consumer out wakes every parked worker so each sees
            // active == 0 and exits once the queue is drained.
            if (active.fetch_sub(1, std::memory_order_release) == 1)
                queue.wake_item_waiters();
        });
    }

    // --- Shared decode pool -----------------------------------------------
    // Per-(worker, stream) decoders, created lazily on the first frame a
    // worker sees from a stream. Decode is a pure function of the closed
    // frame for both backends, so worker routing cannot change a stream's
    // bits; only retry/cycle accounting is per-decoder (summed per stream
    // after the joins).
    struct WorkerDecoders {
        std::vector<std::unique_ptr<CpuBackend>> cpu;
        std::vector<std::unique_ptr<FpgaPipeline>> fpga;
    };
    std::vector<WorkerDecoders> decoders(workers_n);
    for (auto& d : decoders) {
        d.cpu.resize(n);
        d.fpga.resize(n);
    }

    const auto recycle = [&states](DispatchJob job) {
        StreamState& st = *states[job.stream];
        if (st.spec.config.backend != BackendKind::kFpga) job.frame.fill(0.0);
        st.free_pool.push_free(std::move(job));
    };

    // The next job for a worker, parked while the queue is empty; nullopt
    // once every consumer has finished and the queue is drained.
    const auto next_job = [&queue, &active]() -> std::optional<DispatchJob> {
        const auto consumers_done = [&active] {
            return active.load(std::memory_order_acquire) == 0;
        };
        for (;;) {
            if (auto job = queue.try_pop()) return job;
            // Every consumer has finished; one more pop cannot miss a job
            // (see the `active` comment).
            if (consumers_done()) return queue.try_pop();
            queue.wait_for_item(consumers_done);
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(workers_n);
    for (std::size_t w = 0; w < workers_n; ++w) {
        workers.emplace_back([&, w] {
            WorkerDecoders& local = decoders[w];
            try {
                while (auto job = next_job()) {
                    StreamState& st = *states[job->stream];
                    const auto& cfg = st.spec.config;
                    if (decode_down.load(std::memory_order_relaxed)) {
                        recycle(std::move(*job));
                        continue;
                    }
                    Frame decoded;
                    const FpgaCycleReport* fpga_report = nullptr;
                    if (cfg.backend == BackendKind::kFpga) {
                        auto& dec = local.fpga[job->stream];
                        if (!dec)
                            dec = std::make_unique<FpgaPipeline>(
                                st.spec.sequence, st.spec.layout, cfg.fpga);
                        decoded = dec->finalize_frame(job->capture);
                        fpga_report = &dec->report();
                    } else {
                        auto& dec = local.cpu[job->stream];
                        if (!dec) {
                            dec = std::make_unique<CpuBackend>(
                                st.spec.sequence, st.spec.layout, 1);
                            if (cfg.faults != nullptr)
                                dec->set_faults(cfg.faults, cfg.cpu_max_retries,
                                                cfg.cpu_retry_backoff_s);
                        }
                        decoded = dec->deconvolve(job->frame);
                    }
                    if (st.turnstile.wait_turn(job->index)) {
                        if (fpga_report != nullptr) st.fpga = *fpga_report;
                        if (cfg.frame_sink)
                            cfg.frame_sink(job->index, decoded);
                        if (cfg.analysis)
                            cfg.analysis->analyze(job->stream, job->index,
                                                  decoded);
                        st.last_frame = std::move(decoded);
                        const std::uint64_t now = telemetry::now_ns();
                        const std::uint64_t lat = now - job->dispatch_ns;
                        st.shard.latency.observe(lat);
                        agg_latency.observe(lat);
                        st.shard.frames_emitted.fetch_add(
                            1, std::memory_order_relaxed);
                        st.last_emit_ns = now;
                        st.turnstile.advance();
                    }
                    recycle(std::move(*job));
                }
            } catch (...) {
                {
                    std::lock_guard lock(failure_mutex);
                    if (!pool_failure) pool_failure = std::current_exception();
                }
                decode_down.store(true, std::memory_order_relaxed);
                // Release every stream: waiters get a false turn, consumers
                // blocked on pop_free wake with nullopt and stop
                // dispatching. Then keep recycling so in-flight buffers
                // return and the queue drains.
                for (auto& s : states) {
                    s->turnstile.abort();
                    s->free_pool.abort();
                }
                while (auto job = next_job()) recycle(std::move(*job));
            }
        });
    }

    for (auto& t : producers) t.join();
    for (auto& t : consumers) t.join();
    for (auto& t : workers) t.join();

    // Fleet-level (decode pool) failures take precedence: they explain any
    // per-stream fallout. Otherwise the first failing stream's error.
    if (pool_failure) std::rethrow_exception(pool_failure);
    for (const auto& st : states)
        if (st->failure) std::rethrow_exception(st->failure);

    // --- Report -----------------------------------------------------------
    FleetReport out;
    out.wall_seconds = wall.seconds();
    out.frame_latency = agg_latency.summarize();
    out.streams.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        StreamState& st = *states[i];
        const auto& cfg = st.spec.config;
        // Lossless-handoff postconditions per stream, degraded-mode aware
        // (mirrors the solo orchestrator's).
        HTIMS_CHECK(st.ring.empty(), "fleet stream fully drained at end of run");
        HTIMS_CHECK(st.totals.frames_closed == cfg.frames,
                    "every configured frame of every stream was closed");
        HTIMS_CHECK(st.shard.frames_emitted.load(std::memory_order_relaxed) ==
                        cfg.frames,
                    "every closed frame was decoded and emitted exactly once");

        FleetStreamReport sr;
        HybridReport& r = sr.report;
        r.frames = st.totals.frames_closed;
        r.samples = st.link.records_total * st.link.record_len;
        r.records_dropped = st.totals.records_dropped;
        r.frames_degraded = st.totals.frames_degraded;
        r.producer_stall_seconds = st.producer_stall_s;
        r.consumer_idle_seconds = st.consumer_idle_s;
        r.decode_wait_seconds = st.decode_wait_s;
        r.last_frame = std::move(st.last_frame);
        r.fpga = st.fpga;
        // A stream's wall clock runs to its last ordered emission.
        r.wall_seconds = st.last_emit_ns > run_start_ns
                             ? static_cast<double>(st.last_emit_ns - run_start_ns) * 1e-9
                             : out.wall_seconds;
        r.sample_rate = r.wall_seconds > 0.0
                            ? static_cast<double>(r.samples) / r.wall_seconds
                            : 0.0;
        for (const auto& d : decoders)
            if (d.cpu[i]) r.cpu_task_retries += d.cpu[i]->task_retries();
        if (cfg.faults != nullptr) r.faults = cfg.faults->counts();
        sr.frame_latency = st.shard.latency.summarize();

        out.frames += r.frames;
        out.samples += r.samples;
        out.records_dropped += r.records_dropped;
        out.frames_degraded += r.frames_degraded;
        out.streams.push_back(std::move(sr));
    }
    out.sample_rate = out.wall_seconds > 0.0
                          ? static_cast<double>(out.samples) / out.wall_seconds
                          : 0.0;
    return out;
}

}  // namespace htims::pipeline
