// hybrid.hpp — the hybrid CPU↔processing-element orchestrator.
//
// Models the paper's Cray XD1 arrangement: a software producer streams raw
// detector records over a bounded link (the SPSC ring standing in for the
// RapidArray interconnect) to a processing component — either the FPGA
// model or the CPU software backend — one TOF record per block. The run
// report captures what the paper's evaluation cares about: achieved
// streaming throughput, producer backpressure (link/processing too slow),
// consumer idle time (source too slow), and whether the pipeline sustains
// the instrument's native data rate.
//
// HybridPipeline is the streaming engine (pipeline/fleet.cpp) run as a
// fleet of one stream: FleetRunner and HybridPipeline share every line of
// transport, decode and emission code, so a stream behaves bit-identically
// whether it runs alone or in a fleet.
//
// Degraded-mode operation: a real instrument run cannot abort mid-gradient
// because the link briefly outran the decoder. The ring-full policy decides
// what the producer does when the link is saturated (block as before, drop
// the arriving record, or sacrifice the oldest queued record), records are
// sequence-tagged so the consumer closes every configured frame even when
// records were lost, and an optional FaultInjector drives deterministic
// link jitter / forced-overrun / transient-CPU-failure scenarios. Every
// drop is counted (hybrid.records_dropped, hybrid.frames_degraded) and
// surfaced in the HybridReport next to the injector's own counts.
//
// Overlapped decode (overlap_decode): by default the consumer deconvolves
// each closed frame inline, so ring pops pause for the decode and the
// producer stalls exactly when the paper's architecture says it shouldn't.
// With overlap on, the consumer hands each closed frame to a pool of
// decode_workers workers and immediately resumes popping into a recycled
// buffer — capture and deconvolution overlap as on the real XD1. The
// stream keeps decode_workers + 1 frames in flight (one accumulating, one
// per worker), so the consumer never waits while a worker is idle. Workers
// decode concurrently but emit through a sequence-ordered turnstile, so
// results still complete in frame order, bit-identical to the synchronous
// path. A CPU decoder gets cpu_threads threads with one worker and an even
// share of them (at least one) with several.
//
// Batch transport (batch_records): the producer stages up to a frame's
// worth of consecutive records and publishes them with one ring operation,
// and the consumer pops in batches — the acquire/release protocol cost is
// paid per span instead of per ~32-byte record. Pacing, fault-injection
// event order, and ring-full policy semantics are all per record exactly as
// before: paced or faulted records take the one-at-a-time path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/fpga.hpp"
#include "pipeline/frame.hpp"
#include "pipeline/spsc_ring.hpp"
#include "telemetry/registry.hpp"

namespace htims::analysis {
class AnalysisStage;
}

namespace htims::pipeline {

/// Which processing component consumes the stream.
enum class BackendKind { kFpga, kCpu };

/// Where the producer's records come from. The built-in source replays a
/// fixed period template (the simulated live instrument); the frame store's
/// ReplaySource serves an archived run back through the same ring. The
/// producer thread is the only caller of record(); sources need no locking.
class RecordSource {
public:
    virtual ~RecordSource() = default;

    /// Total records the stream delivers (must equal the run's
    /// frames x averages x drift_bins).
    virtual std::uint64_t total_records() const = 0;

    /// One TOF record (mz_bins samples) for global record index `seq`.
    /// The span must stay valid until `window` more records (see
    /// set_window) have been requested — blocks queued in the ring still
    /// point at it.
    virtual std::span<const std::uint32_t> record(std::uint64_t seq) = 0;

    /// Up to `max_records` consecutive records starting at `seq`, returned
    /// as one contiguous span (k * mz_bins samples for some 1 <= k <=
    /// max_records). Sources return as many rows as are contiguous in their
    /// backing storage; the default forwards to record(). The producer
    /// stages the rows as individual ring blocks, so the set_window
    /// retention contract is unchanged.
    virtual std::span<const std::uint32_t> record_block(std::uint64_t seq,
                                                        std::size_t max_records) {
        (void)max_records;
        return record(seq);
    }

    /// Earliest release time for `seq`, in nanoseconds after stream start
    /// (0 = release immediately). A replay paces the recorded line rate
    /// here; the producer busy-waits the residual. Must be non-decreasing
    /// in `seq` — the producer batches a run of records only after proving
    /// the run's *last* record releases immediately, which implies the
    /// whole run does.
    virtual std::uint64_t release_ns(std::uint64_t /*seq*/) const {
        return 0;
    }

    /// The pipeline's guarantee to the source: at most `records` record
    /// spans are outstanding (queued in the ring) at any moment. Called
    /// once before streaming starts; sources that recycle backing buffers
    /// size their retention window from it.
    virtual void set_window(std::size_t records) { (void)records; }
};

/// The default source: one period of samples streamed repeatedly
/// (averages x frames times), rows addressed by seq modulo the period.
class PeriodTemplateSource final : public RecordSource {
public:
    PeriodTemplateSource(std::vector<std::uint32_t> period_samples,
                         const FrameLayout& layout, std::uint64_t frames,
                         std::uint64_t averages);

    std::uint64_t total_records() const override { return total_records_; }
    std::span<const std::uint32_t> record(std::uint64_t seq) override;
    std::span<const std::uint32_t> record_block(std::uint64_t seq,
                                                std::size_t max_records) override;

private:
    std::vector<std::uint32_t> period_samples_;
    std::size_t record_len_ = 0;
    std::size_t records_per_period_ = 0;
    std::uint64_t total_records_ = 0;
};

/// What the producer does when a record arrives at a full ring.
enum class RingFullPolicy {
    kBlock,       ///< wait for space (optionally bounded by ring_timeout_s)
    kDropNewest,  ///< discard the arriving record
    kDropOldest,  ///< discard the oldest queued record, keep the new one
};

/// Hybrid run parameters.
struct HybridConfig {
    BackendKind backend = BackendKind::kFpga;
    std::size_t frames = 8;         ///< frames to stream
    std::size_t averages = 1;       ///< periods accumulated per frame
    std::size_t ring_records = 256; ///< link depth, in TOF records
    std::size_t batch_records = 32; ///< records staged per ring publication
                                    ///< (clamped to the ring depth; 1 =
                                    ///< per-record transport as before)
    std::size_t cpu_threads = 0;    ///< CPU backend worker count (0 = auto)
    FpgaConfig fpga{};              ///< FPGA model parameters

    RingFullPolicy ring_policy = RingFullPolicy::kBlock;
    double ring_timeout_s = 0.0;    ///< kBlock: max wait per record (0 = forever);
                                    ///< on expiry the record is dropped
    int cpu_max_retries = 4;        ///< retry budget for transient CPU faults
    double cpu_retry_backoff_s = 50e-6;  ///< initial retry backoff (doubles)

    bool overlap_decode = false;    ///< decode frame k on a worker thread
                                    ///< while frame k+1 streams in
    std::size_t decode_workers = 1; ///< decode worker threads with overlap
                                    ///< on (>= 1); results are reassembled
                                    ///< in sequence order whatever the count

    /// Optional per-frame sink, called once per decoded frame with its
    /// index. Runs on a decode worker in overlap mode and on the consumer
    /// otherwise; the call sequence is frame order in both (multi-worker
    /// emission is serialized through the order turnstile).
    std::function<void(std::size_t, const Frame&)> frame_sink;

    /// Optional streaming analysis stage, invoked from the same ordered
    /// emission point as frame_sink (right after it) with the stream's
    /// index as its id (0 for a solo run). The ordered
    /// call sequence is what makes the stage's greedy clustering
    /// deterministic across decode-worker counts. Not owned.
    analysis::AnalysisStage* analysis = nullptr;

    fault::FaultInjector* faults = nullptr;  ///< optional fault injection
};

/// Outcome of a hybrid streaming run.
struct HybridReport {
    std::uint64_t frames = 0;
    std::uint64_t samples = 0;
    double wall_seconds = 0.0;
    double producer_stall_seconds = 0.0;  ///< time blocked on a full ring
    double consumer_idle_seconds = 0.0;   ///< time starved on an empty ring
    double decode_wait_seconds = 0.0;     ///< overlap mode: consumer time
                                          ///< blocked on a free decode buffer
    double sample_rate = 0.0;             ///< achieved samples/second
    FpgaCycleReport fpga{};               ///< last frame (FPGA backend only)
    Frame last_frame;                     ///< last deconvolved frame
    telemetry::Snapshot telemetry;        ///< registry snapshot at run end
                                          ///< (empty when telemetry is off)

    std::uint64_t records_dropped = 0;  ///< records lost to policy/overrun
    std::uint64_t frames_degraded = 0;  ///< frames missing >= 1 record
    std::uint64_t cpu_task_retries = 0; ///< transient CPU faults retried
    fault::InjectionCounts faults{};    ///< injector counters at run end

    /// Ratio of achieved throughput to the instrument's native rate; >= 1
    /// means the pipeline keeps up in real time. A non-positive
    /// `instrument_sample_rate` is a configuration without a meaningful
    /// native rate: the sentinel 0.0 is returned ("no real-time claim"),
    /// deliberately reading as *not* keeping up rather than dividing by
    /// zero or signalling success.
    double realtime_factor(double instrument_sample_rate) const {
        return instrument_sample_rate > 0.0 ? sample_rate / instrument_sample_rate : 0.0;
    }
};

/// One instrument stream as the streaming engine runs it: HybridPipeline
/// runs one, FleetRunner runs N over a shared decode pool.
struct FleetStream {
    prs::OversampledPrs sequence;  ///< this stream's PRS (seed included)
    FrameLayout layout;
    HybridConfig config;
    /// Live source: one period of samples replayed averages x frames times
    /// (ignored when `source` is set).
    std::vector<std::uint32_t> period_samples;
    /// External source (e.g. store::ReplaySource); must outlive run() and
    /// deliver exactly frames x averages x drift_bins records.
    RecordSource* source = nullptr;
};

/// The solo orchestrator: the streaming engine run as a fleet of one.
/// Every thread it uses lives only for the duration of run().
class HybridPipeline {
public:
    /// `period_samples` is one period of digitized detector output in frame
    /// order (drift-major), length == layout.cells(); the producer streams
    /// it repeatedly (averages x frames times).
    HybridPipeline(const prs::OversampledPrs& sequence, const FrameLayout& layout,
                   std::vector<std::uint32_t> period_samples, const HybridConfig& config);

    /// Stream from an external record source instead (e.g. the frame
    /// store's ReplaySource). `source` must outlive the pipeline and
    /// deliver exactly frames x averages x drift_bins records.
    HybridPipeline(const prs::OversampledPrs& sequence, const FrameLayout& layout,
                   RecordSource& source, const HybridConfig& config);

    const FrameLayout& layout() const { return stream_.layout; }

    /// Execute the streaming run; blocking.
    HybridReport run();

private:
    std::optional<PeriodTemplateSource> template_source_;
    FleetStream stream_;  ///< `source` is template_source_ or the caller's
};

/// Helper: reduce an accumulated raw frame back to one representative
/// period of ADC words (raw / averages, rounded and clamped to the 32-bit
/// sample domain) — the stream template the producer replays.
std::vector<std::uint32_t> to_period_samples(const Frame& raw, std::size_t averages);

}  // namespace htims::pipeline
