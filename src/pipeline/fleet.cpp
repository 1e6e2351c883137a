#include "pipeline/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
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
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace htims::pipeline {

namespace {

/// One closed frame in flight from a stream consumer to its decoder, or a
/// spare buffer on the stream's free list. Exactly one of `frame` (CPU
/// backend: the accumulated raw frame) and `capture` (FPGA backend: the
/// detached capture) is used — the stream's backend says which. A spare
/// starts empty and is sized on first use.
struct DispatchJob {
    std::uint32_t stream = 0;
    std::size_t index = 0;         ///< frame index within the stream
    std::uint64_t dispatch_ns = 0; ///< when the consumer closed it
    Frame frame;
    FpgaCapture capture;
};

/// Per-stream telemetry shard. Cache-line-aligned so neighbouring streams'
/// hot emission counters never share a line (SNIPPETS.md's sharded-counter
/// lesson: unsharded fleet counters collapse under worker contention).
struct alignas(kCacheLine) StreamShard {
    explicit StreamShard(const std::atomic<bool>* enabled) : latency(enabled) {}
    telemetry::LogHistogram latency;  ///< ns, close -> ordered emission
    std::atomic<std::uint64_t> frames_emitted{0};
};

/// The hybrid.* instruments of the global registry. Every stream of every
/// run feeds them; a fleet's streams pool into the same instruments.
struct Instruments {
    static Instruments& get() {
        static Instruments instruments;
        return instruments;
    }

    telemetry::Registry& tel = telemetry::Registry::global();
    telemetry::Counter& records = tel.counter("hybrid.records");
    telemetry::Counter& frames = tel.counter("hybrid.frames");
    telemetry::Counter& stalls = tel.counter("hybrid.producer_stalls");
    telemetry::Counter& idles = tel.counter("hybrid.consumer_idles");
    telemetry::Counter& records_dropped = tel.counter("hybrid.records_dropped");
    telemetry::Counter& frames_degraded = tel.counter("hybrid.frames_degraded");
    telemetry::Counter& jitter = tel.counter("hybrid.link_jitter_events");
    telemetry::Gauge& ring = tel.gauge("hybrid.ring_occupancy");
    telemetry::Gauge& decode_queue = tel.gauge("hybrid.decode_queue_depth");
    telemetry::LogHistogram& ring_h = tel.histogram("hybrid.ring_occupancy");
    telemetry::LogHistogram& decode_queue_h =
        tel.histogram("hybrid.decode_queue_depth");
    telemetry::LogHistogram& stall_ns = tel.histogram("hybrid.producer_stall_ns");
    telemetry::LogHistogram& idle_ns = tel.histogram("hybrid.consumer_idle_ns");
    telemetry::LogHistogram& frame_ns = tel.histogram("hybrid.frame_ns");
    telemetry::LogHistogram& decode_ns = tel.histogram("hybrid.decode_overlap_ns");
    telemetry::LogHistogram& decode_wait_ns = tel.histogram("hybrid.decode_wait_ns");
    telemetry::LogHistogram& batch = tel.histogram("hybrid.batch_size");
    const std::uint32_t stage_run = tel.intern("hybrid.run");
    const std::uint32_t stage_frame = tel.intern("hybrid.frame");
    const std::uint32_t stage_decode = tel.intern("hybrid.decode_worker");
};

std::uint64_t to_ns(double seconds) {
    return static_cast<std::uint64_t>(seconds * 1e9);
}

/// A stream's decoder: its CPU backend or its FPGA model. Decode is a pure
/// function of the closed frame for both, so which instance decodes a
/// frame cannot change its bits; only retry and cycle accounting is
/// per-instance. FPGA faults are drawn at capture, so only the consumer's
/// capture pipeline carries the injector.
struct Decoder {
    Decoder(const FleetStream& spec, std::size_t cpu_threads) {
        const auto& cfg = spec.config;
        if (cfg.backend == BackendKind::kFpga) {
            fpga.emplace(spec.sequence, spec.layout, cfg.fpga);
        } else {
            cpu.emplace(spec.sequence, spec.layout, cpu_threads);
            if (cfg.faults != nullptr)
                cpu->set_faults(cfg.faults, cfg.cpu_max_retries,
                                cfg.cpu_retry_backoff_s);
        }
    }

    Frame decode(const DispatchJob& job) {
        return cpu ? cpu->deconvolve(job.frame) : fpga->finalize_frame(job.capture);
    }
    const FpgaCycleReport* report() const { return fpga ? &fpga->report() : nullptr; }
    std::uint64_t retries() const { return cpu ? cpu->task_retries() : 0; }

    std::optional<CpuBackend> cpu;
    std::optional<FpgaPipeline> fpga;
};

/// Frames in flight per stream with M pool workers shared by N streams:
/// one accumulating at the consumer plus one for each worker of the
/// stream's share of the pool, ceil(M / N). Inline decode (M = 0) keeps
/// just the accumulating one.
std::size_t frames_in_flight(std::size_t workers, std::size_t streams) {
    return (workers + streams - 1) / streams + 1;
}

/// CPU threads per decoder: inline decode and a one-worker pool keep
/// cpu_threads; M > 1 workers split T = cpu_threads (0 = hardware
/// concurrency) evenly, at least one each.
std::size_t decoder_threads(std::size_t cpu_threads, std::size_t workers) {
    if (workers <= 1) return cpu_threads;
    const std::size_t total =
        cpu_threads > 0
            ? cpu_threads
            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
    return std::max<std::size_t>(1, total / workers);
}

/// Everything one stream owns for the duration of a run. Heap-held (the
/// shard, ring and free list are neither movable nor copyable); thread
/// roles: the producer thread writes producer_stall_s; the consumer thread
/// owns totals/stream_done/decode_wait_s/consumer_idle_s/inline_retries/
/// failure; last_frame / fpga / last_emit_ns / frame_mark_ns are written
/// only inside the turnstile-serialized emission section (the
/// release-advance/acquire-observe edge orders them emitter-to-emitter, and
/// the final join publishes them to the caller).
struct StreamState {
    StreamState(const FleetStream& s, std::uint32_t index, std::size_t in_flight,
                const std::atomic<bool>* stats)
        : spec(s),
          id(index),
          ring(s.config.ring_records),
          free_list(in_flight),
          shard(stats) {}

    const FleetStream& spec;
    const std::uint32_t id;
    SpscRing<Block> ring;
    std::optional<PeriodTemplateSource> template_source;
    RecordSource* source = nullptr;
    LinkParams link{};

    OrderTurnstile<> turnstile;
    /// Spare buffers: workers push recycled jobs, the consumer pops. The
    /// capacity covers every in-flight buffer, so a push never fails.
    MpmcQueue<DispatchJob> free_list;
    StreamShard shard;
    // kDropOldest: the producer cannot pop an SPSC ring, so it grants the
    // consumer a drop credit instead, and the consumer discards its next
    // (oldest queued) record per credit.
    alignas(kCacheLine) std::atomic<std::uint64_t> drop_credits{0};

    // Producer-thread-owned.
    double producer_stall_s = 0.0;

    // Consumer-thread-owned (read by the caller after the joins).
    double consumer_idle_s = 0.0;
    double decode_wait_s = 0.0;
    ConsumeTotals totals{};
    bool stream_done = false;
    std::uint64_t inline_retries = 0;
    std::exception_ptr failure;

    // Emission-section-owned (turnstile-serialized).
    Frame last_frame;
    FpgaCycleReport fpga{};
    std::uint64_t last_emit_ns = 0;
    std::uint64_t frame_mark_ns = 0;  ///< previous emission, for hybrid.frame_ns
};

/// One run of the streaming engine. Thread roles per stream: a producer
/// (produce_stream into the ring) and a consumer (consume_stream, then
/// inline decode or dispatch into the shared queue); plus `workers` pool
/// threads that decode dispatched frames and emit them through the
/// stream's turnstile.
class Engine {
public:
    Engine(std::span<const FleetStream> streams, std::size_t workers,
           std::size_t dispatch_depth)
        : workers_(workers),
          // The auto-sized dispatch queue holds every frame that can be in
          // flight at once, so a full queue (consumer-side backpressure) only
          // happens when the caller asked for a smaller dispatch_depth.
          queue_(dispatch_depth > 0
                     ? dispatch_depth
                     : std::max<std::size_t>(
                           2, streams.size() *
                                  (frames_in_flight(workers, streams.size()) - 1))),
          decoders_(workers),
          active_(streams.size()) {
        for (auto& mine : decoders_) mine.resize(streams.size());
        const std::size_t in_flight = frames_in_flight(workers, streams.size());
        states_.reserve(streams.size());
        for (std::size_t i = 0; i < streams.size(); ++i) {
            const FleetStream& spec = streams[i];
            const auto& cfg = spec.config;
            auto st = std::make_unique<StreamState>(
                spec, static_cast<std::uint32_t>(i), in_flight, &stats_on_);
            if (spec.source != nullptr) {
                st->source = spec.source;
            } else {
                st->template_source.emplace(spec.period_samples, spec.layout,
                                            cfg.frames, cfg.averages);
                st->source = &*st->template_source;
            }

            // Batch sizing: the producer stages up to batch_cap records per
            // ring publication and the consumer pops the same amount per
            // protocol round trip; batch_records = 1 restores the per-record
            // transport exactly, backpressure granularity included.
            const std::size_t batch_cap = std::max<std::size_t>(
                1, std::min(cfg.batch_records, st->ring.capacity()));
            // Ring capacity + the producer's staged batch + the consumer's
            // popped batch + the blocks in either thread's hands: the most
            // record spans ever outstanding at once.
            st->source->set_window(st->ring.capacity() + 2 * batch_cap + 2);
            const std::size_t records_per_period = spec.layout.drift_bins;
            const std::uint64_t records_per_frame =
                static_cast<std::uint64_t>(cfg.averages) * records_per_period;
            st->link = LinkParams{spec.layout.mz_bins,
                                  records_per_period,
                                  records_per_frame * cfg.frames,
                                  records_per_frame,
                                  cfg.frames,
                                  batch_cap,
                                  batch_cap,
                                  cfg.ring_policy,
                                  cfg.ring_timeout_s,
                                  cfg.faults};
            HTIMS_CHECK(st->source->total_records() == st->link.records_total,
                        "record source matches the configured stream");
            for (std::size_t b = 0; b + 1 < in_flight; ++b) {
                const bool pushed = st->free_list.try_push(DispatchJob{});
                HTIMS_CHECK(pushed, "free list holds every spare buffer");
            }
            states_.push_back(std::move(st));
        }
    }

    FleetReport run() {
        const std::size_t n = states_.size();
        auto run_span = ins_.tel.span(ins_.stage_run);
        WallTimer wall;
        const std::uint64_t run_start_ns = telemetry::now_ns();
        for (auto& st : states_) st->frame_mark_ns = run_start_ns;

        // Producers first: a stream's setup ends at its first record request.
        std::vector<std::thread> threads;
        threads.reserve(2 * n - 1 + workers_);
        for (auto& st : states_)
            threads.emplace_back([this, s = st.get()] { produce(*s); });
        for (std::size_t i = 0; i + 1 < n; ++i)
            threads.emplace_back([this, s = states_[i].get()] { consume(*s); });
        for (std::size_t w = 0; w < workers_; ++w)
            threads.emplace_back([this, w] { work(w); });
        consume(*states_.back());
        for (auto& t : threads) t.join();

        // Pool failures take precedence: they explain any per-stream fallout.
        // Otherwise the first failing stream's error.
        if (pool_failure_) std::rethrow_exception(pool_failure_);
        for (const auto& st : states_)
            if (st->failure) std::rethrow_exception(st->failure);

        FleetReport out;
        out.streams.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            StreamState& st = *states_[i];
            const auto& cfg = st.spec.config;
            // Lossless-handoff postconditions, degraded-mode aware: the ring
            // fully drained, every configured frame was closed and emitted once,
            // and nothing was dropped unless a drop policy or a fault was in play.
            HTIMS_CHECK(st.ring.empty(), "stream fully drained at end of run");
            HTIMS_CHECK(st.totals.frames_closed == cfg.frames,
                        "every configured frame of every stream was closed");
            HTIMS_CHECK(st.shard.frames_emitted.load(std::memory_order_relaxed) ==
                            cfg.frames,
                        "every closed frame was decoded and emitted exactly once");
            HTIMS_CHECK(st.totals.records_dropped == 0 ||
                            cfg.ring_policy != RingFullPolicy::kBlock ||
                            cfg.ring_timeout_s > 0.0 || cfg.faults != nullptr,
                        "unbounded Block policy without faults never drops records");

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
            r.cpu_task_retries = st.inline_retries;
            for (const auto& mine : decoders_)
                if (mine[i]) r.cpu_task_retries += mine[i]->retries();
            if (cfg.faults != nullptr) r.faults = cfg.faults->counts();
            sr.frame_latency = st.shard.latency.summarize();
            // A stream's wall clock runs to its last ordered emission.
            r.wall_seconds = static_cast<double>(st.last_emit_ns - run_start_ns) * 1e-9;
            r.sample_rate = r.wall_seconds > 0.0
                                ? static_cast<double>(r.samples) / r.wall_seconds
                                : 0.0;

            out.frames += r.frames;
            out.samples += r.samples;
            out.records_dropped += r.records_dropped;
            out.frames_degraded += r.frames_degraded;
            out.streams.push_back(std::move(sr));
        }
        out.frame_latency = agg_latency_.summarize();
        out.wall_seconds = wall.seconds();
        out.sample_rate = out.wall_seconds > 0.0
                              ? static_cast<double>(out.samples) / out.wall_seconds
                              : 0.0;
        return out;
    }

private:
    void produce(StreamState& st) {
        produce_stream(st.ring, *st.source, st.link, st.drop_credits,
                       ProducerHooks{
                           [&](double stalled) {
                               st.producer_stall_s += stalled;
                               if (tel_on_) {
                                   ins_.stalls.increment();
                                   ins_.stall_ns.observe(to_ns(stalled));
                               }
                           },
                           [&] {
                               if (tel_on_) ins_.jitter.increment();
                           },
                       });
    }

    void consume(StreamState& st) {
        const FleetStream& spec = st.spec;
        const bool fpga = spec.config.backend == BackendKind::kFpga;
        const bool pooled = workers_ > 0;
        const auto hooks = ConsumerHooks{
            [&](double idled) {
                st.consumer_idle_s += idled;
                if (tel_on_) {
                    ins_.idles.increment();
                    ins_.idle_ns.observe(to_ns(idled));
                }
            },
            [&](std::size_t got) {
                if (tel_on_) {
                    const std::size_t depth = st.ring.size();
                    ins_.ring.set(static_cast<std::int64_t>(depth));
                    ins_.ring_h.observe(depth);
                    ins_.batch.observe(got);
                }
            },
            [&] {
                if (tel_on_) ins_.records.increment();
            },
            [&](std::uint64_t n) {
                if (tel_on_) ins_.records_dropped.add(static_cast<std::int64_t>(n));
            },
            [&] {
                if (tel_on_) ins_.frames_degraded.increment();
            },
        };
        try {
            // The consumer's own decoder decodes inline; on the FPGA backend it
            // is also the capture pipeline, which draws the capture-time faults
            // in frame order whoever finalizes.
            std::optional<Decoder> own;
            if (fpga || !pooled) own.emplace(spec, spec.config.cpu_threads);
            if (fpga) own->fpga->set_faults(spec.config.faults);
            // The frame being closed next: the CPU accumulation buffer, or the
            // storage the FPGA capture detaches into.
            DispatchJob current;
            if (!fpga) current.frame = Frame(spec.layout);
            bool down = false;  // the pool failed: drain without dispatching
            const auto take_spare = [&] {
                auto job = next_spare(st);
                if (job) current = std::move(*job);
                down = !job;
                return !down;
            };
            const std::size_t records_per_period = st.link.records_per_period;
            st.totals = consume_stream(
                st.ring, st.link, st.drop_credits, st.stream_done,
                [&](const Block& block) {
                    if (down) return;  // the buffer was handed off
                    if (fpga) {
                        own->fpga->push_samples(std::span(block.data, block.size));
                        return;
                    }
                    auto row = current.frame.record(
                        static_cast<std::size_t>(block.seq % records_per_period));
                    for (std::size_t i = 0; i < block.size; ++i)
                        row[i] += static_cast<double>(block.data[i]);
                },
                [&](std::size_t index, bool more_frames) {
                    if (down) return;
                    if (fpga) {
                        if (pooled && !take_spare()) return;
                        current.capture =
                            own->fpga->capture_frame(std::move(current.capture));
                    }
                    if (!pooled) {
                        const std::uint64_t closed_ns = telemetry::now_ns();
                        emit(st, index, own->decode(current), own->report(),
                             closed_ns);
                        if (!fpga) current.frame.fill(0.0);
                        return;
                    }
                    current.index = index;
                    dispatch(st, std::move(current));
                    if (fpga || !more_frames || !take_spare()) return;
                    if (current.frame.data().size() != spec.layout.cells())
                        current.frame = Frame(spec.layout);  // a spare's first use
                },
                hooks);
            if (own) st.inline_retries = own->retries();
        } catch (...) {
            st.failure = std::current_exception();
            // Drain the link so the producer can deliver its sentinel.
            if (!st.stream_done) drain_to_end(st.ring);
        }
        // The last consumer out wakes every parked worker so each sees
        // active_ == 0 and exits once the queue is drained.
        if (active_.fetch_sub(1, std::memory_order_release) == 1)
            queue_.wake_item_waiters();
    }

    /// The one emission block, shared by inline decode and the pool workers:
    /// wait for the frame's turn, deliver it, account for it, pass the turn on.
    void emit(StreamState& st, std::size_t index, Frame decoded,
              const FpgaCycleReport* fpga, std::uint64_t closed_ns) {
        if (!st.turnstile.wait_turn(index)) return;  // aborted: the pool failed
        const auto& cfg = st.spec.config;
        if (fpga != nullptr) st.fpga = *fpga;
        if (cfg.frame_sink) cfg.frame_sink(index, decoded);
        if (cfg.analysis) cfg.analysis->analyze(st.id, index, decoded);
        st.last_frame = std::move(decoded);
        const std::uint64_t now = telemetry::now_ns();
        st.shard.latency.observe(now - closed_ns);
        agg_latency_.observe(now - closed_ns);
        st.shard.frames_emitted.fetch_add(1, std::memory_order_relaxed);
        st.last_emit_ns = now;
        if (tel_on_) {
            ins_.frames.increment();
            ins_.frame_ns.observe(now - st.frame_mark_ns);
            ins_.tel.trace().record(telemetry::SpanEvent{
                ins_.stage_frame, telemetry::thread_slot(), 1, st.frame_mark_ns, now});
            st.frame_mark_ns = now;
        }
        st.turnstile.advance();
    }

    /// Blocking enqueue: a full dispatch queue stalls only this stream (its
    /// ring then fills and its producer stalls — the backpressure chain stays
    /// stream-local).
    void dispatch(StreamState& st, DispatchJob job) {
        job.stream = st.id;
        job.dispatch_ns = telemetry::now_ns();
        if (!queue_.try_push(std::move(job))) {
            WallTimer wait;
            do {
                queue_.wait_for_slot();
            } while (!queue_.try_push(std::move(job)));
            st.decode_wait_s += wait.seconds();
        }
        if (tel_on_) {
            const std::size_t depth = queue_.size();
            ins_.decode_queue.set(static_cast<std::int64_t>(depth));
            ins_.decode_queue_h.observe(depth);
        }
    }

    /// The next spare buffer from the stream's free list, parked while it is
    /// empty; nullopt once the decode pool has failed (no buffer may return).
    std::optional<DispatchJob> next_spare(StreamState& st) {
        const auto pool_down = [this] {
            return decode_down_.load(std::memory_order_relaxed);
        };
        WallTimer wait;
        std::optional<DispatchJob> job;
        while (!pool_down() && !(job = st.free_list.try_pop()))
            st.free_list.wait_for_item(pool_down);
        const double waited = wait.seconds();
        st.decode_wait_s += waited;
        if (tel_on_) ins_.decode_wait_ns.observe(to_ns(waited));
        return job;
    }

    /// The next job for a worker, parked while the queue is empty; nullopt
    /// once every consumer has finished and the queue is drained.
    std::optional<DispatchJob> next_job() {
        const auto consumers_done = [this] {
            return active_.load(std::memory_order_acquire) == 0;
        };
        for (;;) {
            if (auto job = queue_.try_pop()) return job;
            // Every consumer has finished; one more pop cannot miss a job (see
            // the active_ comment).
            if (consumers_done()) return queue_.try_pop();
            queue_.wait_for_item(consumers_done);
        }
    }

    void recycle(DispatchJob job) {
        StreamState& st = *states_[job.stream];
        if (st.spec.config.backend != BackendKind::kFpga) job.frame.fill(0.0);
        const bool pushed = st.free_list.try_push(std::move(job));
        HTIMS_CHECK(pushed, "a stream's free list holds all of its in-flight buffers");
    }

    void work(std::size_t worker) {
        const auto decoder_for = [&](std::size_t stream) -> Decoder& {
            auto& decoder = decoders_[worker][stream];
            if (!decoder) {
                const auto& spec = states_[stream]->spec;
                decoder = std::make_unique<Decoder>(
                    spec, decoder_threads(spec.config.cpu_threads, workers_));
            }
            return *decoder;
        };
        try {
            decoder_for(worker % states_.size());  // off the frame path
            while (auto job = next_job()) {
                StreamState& st = *states_[job->stream];
                if (decode_down_.load(std::memory_order_relaxed)) {
                    recycle(std::move(*job));
                    continue;
                }
                Decoder& decoder = decoder_for(job->stream);
                const std::uint64_t t0 = tel_on_ ? telemetry::now_ns() : 0;
                Frame decoded;
                {
                    auto decode_span = ins_.tel.span(ins_.stage_decode);
                    decoded = decoder.decode(*job);
                }
                if (tel_on_) ins_.decode_ns.observe(telemetry::now_ns() - t0);
                emit(st, job->index, std::move(decoded), decoder.report(),
                     job->dispatch_ns);
                recycle(std::move(*job));
            }
        } catch (...) {
            // The first failing worker records the pool's failure.
            if (!decode_down_.exchange(true, std::memory_order_relaxed))
                pool_failure_ = std::current_exception();
            // Release every stream: waiters get a false turn, consumers parked
            // on a free list wake, see decode_down_ and stop dispatching. Then
            // keep recycling so in-flight buffers return and the queue drains.
            for (auto& s : states_) {
                s->turnstile.abort();
                s->free_list.wake_item_waiters();
            }
            while (auto job = next_job()) recycle(std::move(*job));
        }
    }

    const std::size_t workers_;
    Instruments& ins_ = Instruments::get();
    const bool tel_on_ = telemetry::kCompiledIn && ins_.tel.enabled();
    std::atomic<bool> stats_on_{true};
    telemetry::LogHistogram agg_latency_{&stats_on_};
    std::vector<std::unique_ptr<StreamState>> states_;
    MpmcQueue<DispatchJob> queue_;
    /// Per-(worker, stream) pool decoders, so mixed backends share the pool
    /// without locking or cross-stream decoder state. Worker w builds its
    /// decoder for stream w mod N at start (a solo run's workers are all
    /// ready for frame 0) and the others on the first frame it sees from
    /// their stream.
    std::vector<std::vector<std::unique_ptr<Decoder>>> decoders_;

    // Consumers still running; workers exit once this hits zero AND the
    // queue is drained. Each consumer decrements with release after its
    // last enqueue, so a worker's acquire read of zero also sees every
    // published slot ticket — no job can be missed. The last consumer then
    // rings the queue's pop-side doorbell, so parked workers re-check.
    std::atomic<std::size_t> active_;
    // Set by a failing worker, then every free list's doorbell is rung:
    // that RMW orders the store before a parked consumer's re-check. The
    // worker whose exchange sets it owns pool_failure_, which the caller
    // reads after the joins.
    std::atomic<bool> decode_down_{false};
    std::exception_ptr pool_failure_;
};

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

namespace detail {

void validate_stream(const FleetStream& stream, const std::string& who) {
    const auto& cfg = stream.config;
    if (cfg.frames == 0 || cfg.averages == 0)
        throw ConfigError(who + " needs frames >= 1 and averages >= 1");
    if (cfg.ring_timeout_s < 0.0)
        throw ConfigError(who + ": ring_timeout_s cannot be negative");
    if (cfg.cpu_max_retries < 0)
        throw ConfigError(who + ": cpu_max_retries cannot be negative");
    if (cfg.batch_records == 0)
        throw ConfigError(who + ": batch_records must be >= 1");
    if (cfg.decode_workers == 0)
        throw ConfigError(who + ": decode_workers must be >= 1");
    if (stream.layout.mz_bins == 0 || stream.layout.drift_bins == 0)
        throw ConfigError(who + ": stream layout is empty");
    const std::uint64_t expected = static_cast<std::uint64_t>(cfg.frames) *
                                   cfg.averages * stream.layout.drift_bins;
    if (stream.source != nullptr) {
        if (stream.source->total_records() != expected)
            throw ConfigError(who + ": record source delivers " +
                              std::to_string(stream.source->total_records()) +
                              " records; the configured run streams " +
                              std::to_string(expected));
    } else if (stream.period_samples.size() != stream.layout.cells()) {
        throw ConfigError(who +
                          ": period sample template must have layout.cells() "
                          "entries");
    }
}

FleetReport run_streams(std::span<const FleetStream> streams,
                        std::size_t decode_workers, std::size_t dispatch_depth) {
    HTIMS_EXPECTS(!streams.empty());
    return Engine(streams, decode_workers, dispatch_depth).run();
}

}  // namespace detail

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
    if (streams_.empty())
        throw ConfigError("a fleet needs at least one stream");
    if (config_.decode_workers == 0)
        throw ConfigError("fleet decode_workers must be >= 1");
    for (std::size_t i = 0; i < streams_.size(); ++i)
        detail::validate_stream(streams_[i], "fleet stream " + std::to_string(i));
}

FleetReport FleetRunner::run() {
    return detail::run_streams(streams_, config_.decode_workers,
                               config_.dispatch_depth);
}

}  // namespace htims::pipeline
