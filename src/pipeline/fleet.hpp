// fleet.hpp — the streaming engine: N instrument streams over a shared
// decode pool.
//
// A production deployment runs many instruments against one processing
// host. FleetRunner models that: N independent streams — each with its own
// layout, configuration, seed, fault plan, and record source (live period
// template or frame-store replay) — ingest concurrently through per-stream
// SPSC rings, and every closed frame travels through ONE bounded lock-free
// MPMC dispatch queue (pipeline/mpmc_queue.hpp) to a shared pool of M
// decode workers. Per-stream ordered-emission turnstiles
// (pipeline/turnstile.hpp) restore frame order within each stream.
//
// This is the only streaming orchestrator: HybridPipeline runs it as a
// fleet of one stream, with M = decode_workers when overlap_decode is on
// and M = 0 otherwise — no pool, each consumer decodes its own frames
// inline. A stream's output is therefore bit-identical whether it runs solo
// or in a fleet; the fleet-parity digest matrix in tests/test_fleet.cpp
// pins that across mixed CPU/FPGA backends, mixed live/replay sources, and
// worker counts.
//
// What the engine derives instead of asking for:
//   * frames in flight per stream: ceil(M / N) + 1 — one accumulating at
//     the consumer plus one for each worker of the stream's share of the
//     pool. Spare buffers recycle through a per-stream lock-free free list
//     and are sized on first use, on the consumer thread;
//   * CPU decoder threads: cpu_threads for inline decode and for a
//     one-worker pool; max(1, T / M) with M > 1 workers, T being
//     cpu_threads (0 = hardware concurrency).
//
// Identity comes from structure, not luck:
//   * the ingest protocol bodies (produce_stream / consume_stream in
//     pipeline/stream_link.hpp) are shared by every stream;
//   * frames are dispatched in frame order per stream and the MPMC queue is
//     FIFO, so the lowest undecoded frame index of a stream is always held
//     by some worker — ordered emission never deadlocks;
//   * decode is a pure function of the closed frame (established for both
//     backends by the overlap-decode digest tests), so which worker decodes
//     a frame cannot change its bits.
//
// Failure isolation: a fault plan on stream k degrades (or, on a terminal
// error, fails) stream k alone; other streams' digests and counters are
// untouched. Per-stream telemetry is sharded (cache-line-padded shards, no
// cross-stream false sharing) and aggregated into the FleetReport, whose
// JSON rendering (fleet_report_json) carries per-stream and aggregate p99
// frame latency — the E16 bench protocol's scaling evidence. Every stream
// also feeds the hybrid.* instruments of the global telemetry registry.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pipeline/frame.hpp"
#include "pipeline/hybrid.hpp"
#include "telemetry/histogram.hpp"

namespace htims::pipeline {

/// Fleet-wide knobs.
struct FleetConfig {
    std::size_t decode_workers = 2;  ///< shared decode pool size (>= 1)
    /// Dispatch queue depth in frames; 0 sizes it so a queue-full condition
    /// is impossible (the per-stream free lists bound the in-flight total).
    /// Smaller values exercise dispatch backpressure: a stream whose frames
    /// meet a full queue stalls its consumer, which fills its ring and
    /// stalls its producer — never its neighbours'.
    std::size_t dispatch_depth = 0;
};

/// Per-stream outcome: the solo-compatible report plus the stream's
/// close-to-emission frame latency distribution.
struct FleetStreamReport {
    HybridReport report;
    telemetry::HistogramSummary frame_latency;  ///< ns, close -> emission
};

/// Fleet outcome: per-stream reports and the cross-stream aggregates.
struct FleetReport {
    std::vector<FleetStreamReport> streams;
    double wall_seconds = 0.0;         ///< whole-fleet wall time
    std::uint64_t frames = 0;          ///< frames closed, all streams
    std::uint64_t samples = 0;         ///< samples streamed, all streams
    double sample_rate = 0.0;          ///< aggregate samples/second
    std::uint64_t records_dropped = 0;
    std::uint64_t frames_degraded = 0;
    telemetry::HistogramSummary frame_latency;  ///< ns, all streams pooled
};

/// Render a fleet report as a standalone JSON document (schema
/// "htims.fleet.v1"): aggregate scalars plus one entry per stream with its
/// throughput, degradation counters, and p50/p95/p99 frame latency.
std::string fleet_report_json(const FleetReport& report);

/// The fleet orchestrator. Every thread lives only for the duration of
/// run(): one producer + one consumer per stream (the calling thread serves
/// the last stream's consumer), plus the shared decode pool.
class FleetRunner {
public:
    /// Validates every stream's configuration eagerly (ConfigError on a bad
    /// one, naming the stream).
    explicit FleetRunner(std::vector<FleetStream> streams,
                         const FleetConfig& config = {});

    std::size_t stream_count() const { return streams_.size(); }

    /// Execute all streams to completion; blocking. A terminal error on one
    /// stream still runs every other stream to completion, then rethrows
    /// the first failure (fleet-level decode-pool failures take precedence).
    FleetReport run();

private:
    std::vector<FleetStream> streams_;
    FleetConfig config_;
};

namespace detail {

/// The per-stream configuration check shared by HybridPipeline and
/// FleetRunner. Throws ConfigError; every message starts with `who`.
void validate_stream(const FleetStream& stream, const std::string& who);

/// Run `streams` to completion on the streaming engine with a shared pool
/// of `decode_workers` workers; 0 means no pool, each consumer decoding its
/// own frames inline. `dispatch_depth` as in FleetConfig.
FleetReport run_streams(std::span<const FleetStream> streams,
                        std::size_t decode_workers, std::size_t dispatch_depth);

}  // namespace detail

}  // namespace htims::pipeline
