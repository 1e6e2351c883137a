// stream_link.hpp — the per-stream ingest protocol of the streaming engine.
//
// One instrument stream is: a producer thread replaying a RecordSource into
// a bounded SPSC ring (batch-staged, line-rate paced, fault-injected, with
// the ring-full policy machinery), and a consumer loop that drains the ring
// in batches, closes frames by watching the sequence tags, and accounts
// drops/degradation. The streaming engine (pipeline/fleet.cpp) drives one
// of these per stream — HybridPipeline as a fleet of one, FleetRunner N of
// them over a shared decode pool.
//
// Telemetry and report accounting stay at the call site: the templates take
// small hook bundles (aggregate-initialized structs of callables, fully
// inlined).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "pipeline/hybrid.hpp"
#include "pipeline/spsc_ring.hpp"

namespace htims::pipeline {

/// One streamed block: a view into the record source's backing storage,
/// tagged with its global record index so the consumer can close frames
/// correctly even when records were dropped upstream. `end` marks the
/// stream sentinel the producer always delivers (never dropped).
struct Block {
    const std::uint32_t* data = nullptr;
    std::size_t size = 0;
    std::uint64_t seq = 0;
    bool end = false;
};

/// The per-stream transport parameters both protocol bodies share.
struct LinkParams {
    std::size_t record_len = 0;           ///< samples per TOF record (mz_bins)
    std::size_t records_per_period = 0;   ///< drift_bins
    std::uint64_t records_total = 0;      ///< frames x averages x drift_bins
    std::uint64_t records_per_frame = 0;  ///< averages x drift_bins
    std::size_t frames = 0;
    std::size_t batch_cap = 1;    ///< producer staging batch (records)
    std::size_t consume_cap = 1;  ///< consumer pop batch (records)
    RingFullPolicy policy = RingFullPolicy::kBlock;
    double ring_timeout_s = 0.0;
    fault::FaultInjector* faults = nullptr;
};

/// Producer-side accounting hooks; both callables must be cheap and
/// thread-confined to the producer thread.
template <typename OnStall, typename OnJitter>
struct ProducerHooks {
    OnStall stall;    ///< stall(seconds): blocked on a full ring once
    OnJitter jitter;  ///< jitter(): one injected link-jitter event
};
template <typename OnStall, typename OnJitter>
ProducerHooks(OnStall, OnJitter) -> ProducerHooks<OnStall, OnJitter>;

/// Consumer-side accounting hooks; thread-confined to the consumer.
template <typename OnIdle, typename OnPopped, typename OnRecord,
          typename OnDropped, typename OnDegraded>
struct ConsumerHooks {
    OnIdle idle;              ///< idle(seconds): starved on an empty ring
    OnPopped popped;          ///< popped(got): one pop_batch round trip
    OnRecord record;          ///< record(): one record accumulated
    OnDropped dropped;        ///< dropped(n): n records lost on the link
    OnDegraded frame_degraded;///< frame_degraded(): a frame closed short
};
template <typename OnIdle, typename OnPopped, typename OnRecord,
          typename OnDropped, typename OnDegraded>
ConsumerHooks(OnIdle, OnPopped, OnRecord, OnDropped, OnDegraded)
    -> ConsumerHooks<OnIdle, OnPopped, OnRecord, OnDropped, OnDegraded>;

/// What the consumer loop counted; `frames_closed` equals params.frames on
/// a complete run (the orchestrators' postcondition).
struct ConsumeTotals {
    std::uint64_t records_dropped = 0;
    std::uint64_t frames_degraded = 0;
    std::uint64_t frames_closed = 0;
};

/// The producer body: stream every record of `source` into `ring`, batch-
/// staged and line-rate paced, with the fault-injection and ring-full
/// policy semantics of the per-record transport, then deliver the end
/// sentinel (always, whatever the policy). Runs on the producer thread;
/// `drop_credits` is the kDropOldest credit channel to the consumer.
template <typename Hooks>
void produce_stream(SpscRing<Block>& ring, RecordSource& source,
                    const LinkParams& p,
                    std::atomic<std::uint64_t>& drop_credits, Hooks hooks) {
    // Blocking push with stall accounting; returns false if the bounded
    // wait expired (kBlock with a timeout).
    const auto push_blocking = [&](Block block) {
        WallTimer stall;
        const bool bounded = p.ring_timeout_s > 0.0 && !block.end;
        while (!ring.try_push(Block{block})) {
            if (!bounded) {
                ring.wait_for_space();
            } else if (!ring.wait_for_space_for(p.ring_timeout_s -
                                                stall.seconds())) {
                hooks.stall(stall.seconds());
                return false;
            }
        }
        const double stalled = stall.seconds();
        if (stalled > 0.0) hooks.stall(stalled);
        return true;
    };

    // Per-record slow path: a record that met a full (or fault-forced
    // "full") link goes through the configured policy.
    const auto push_policy = [&](const Block& block) {
        switch (p.policy) {
            case RingFullPolicy::kBlock:
                push_blocking(block);  // timeout expiry drops the record;
                                       // the consumer sees the seq gap
                break;
            case RingFullPolicy::kDropNewest:
                // dropped; accounted by the consumer via seq gap
                break;
            case RingFullPolicy::kDropOldest:
                drop_credits.fetch_add(1, std::memory_order_release);
                if (!push_blocking(block)) {
                    // The bounded wait expired too: this record is lost to
                    // the timeout (the consumer sees the seq gap), so
                    // revoke the credit if it is still unspent — otherwise
                    // the consumer would later discard a live record that
                    // displaced nothing, dropping two records for one
                    // overrun.
                    std::uint64_t credits =
                        drop_credits.load(std::memory_order_acquire);
                    while (credits > 0 &&
                           !drop_credits.compare_exchange_weak(
                               credits, credits - 1,
                               std::memory_order_acq_rel)) {
                    }
                }
                break;
        }
    };

    // Batch staging: consecutive unpaced, unfaulted records accumulate here
    // and publish with one ring operation (one release-store).
    std::vector<Block> stage;
    stage.reserve(p.batch_cap);
    const auto flush_stage = [&] {
        std::size_t off = 0;
        while (off < stage.size()) {
            const std::size_t pushed =
                ring.push_batch(std::span(stage).subspan(off));
            if (pushed == 0) break;
            off += pushed;
        }
        // Records that met a full ring fall back to the per-record policy
        // machinery, so drop/block semantics are identical to per-record
        // transport.
        for (; off < stage.size(); ++off) {
            if (ring.try_push(Block{stage[off]})) continue;
            push_policy(stage[off]);
        }
        stage.clear();
    };

    WallTimer stream_clock;  // release_ns pacing is relative to here
    std::uint64_t seq = 0;
    while (seq < p.records_total) {
        // Line-rate pacing: sleep off the bulk of the wait, then spin the
        // sub-scheduler-quantum tail so release jitter stays small. Earlier
        // records must reach the link before this one waits.
        const std::uint64_t release = source.release_ns(seq);
        if (release > 0) {
            flush_stage();
            for (;;) {
                const double remain_s =
                    static_cast<double>(release) * 1e-9 - stream_clock.seconds();
                if (remain_s <= 0.0) break;
                if (remain_s > 200e-6)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(remain_s - 100e-6));
                else
                    std::this_thread::yield();
            }
        }

        if (p.faults != nullptr) {
            // Faulted runs take the record-at-a-time path so the injector's
            // per-record event order is exactly the per-record transport's.
            const auto jitter = p.faults->decide(fault::Site::kLinkJitter);
            if (jitter.fire) {
                // A short, plan-determined transport hiccup (10..80 us).
                const auto us = 10 * (1 + p.faults->draw_below(
                                              fault::Site::kLinkJitter,
                                              jitter.event, 8));
                std::this_thread::sleep_for(std::chrono::microseconds(us));
                hooks.jitter();
            }
            const auto row = source.record(seq);
            HTIMS_DCHECK(row.size() == p.record_len,
                         "record source rows span the m/z axis");
            const Block block{row.data(), row.size(), seq, false};
            ++seq;
            if (p.faults->should_fire(fault::Site::kLinkOverrun)) {
                // Forced overrun: straight to the policy, behind everything
                // staged before it.
                flush_stage();
                push_policy(block);
            } else {
                stage.push_back(block);
                if (stage.size() >= p.batch_cap ||
                    seq % p.records_per_frame == 0)
                    flush_stage();
            }
            continue;
        }

        // Fault-free fast path: stage a contiguous run of records, cut at
        // the batch size and the frame boundary (publications stay frame-
        // local). Batch a run only when its *last* record releases
        // immediately — release times are non-decreasing, so the whole run
        // does; paced streams fall back to record-at-a-time with the wait
        // above.
        std::uint64_t want =
            static_cast<std::uint64_t>(p.batch_cap - stage.size());
        const std::uint64_t frame_end =
            (seq / p.records_per_frame + 1) * p.records_per_frame;
        want = std::min(want, frame_end - seq);
        if (want > 1 && source.release_ns(seq + want - 1) > 0) want = 1;
        const auto rows = source.record_block(seq, static_cast<std::size_t>(want));
        const std::size_t k = rows.size() / p.record_len;
        HTIMS_DCHECK(k >= 1 && k <= want && rows.size() == k * p.record_len,
                     "record_block returns 1..max_records whole rows");
        for (std::size_t j = 0; j < k; ++j)
            stage.push_back(Block{rows.data() + j * p.record_len, p.record_len,
                                  seq + j, false});
        seq += k;
        if (stage.size() >= p.batch_cap || seq % p.records_per_frame == 0)
            flush_stage();
    }
    flush_stage();
    // Stream-end sentinel: always delivered, whatever the policy.
    push_blocking(Block{nullptr, 0, p.records_total, true});
}

/// The consumer body: drain the ring in batches until the end sentinel,
/// folding records with `accumulate(block)` and finishing frames with
/// `close_frame(index, more_frames)`. Frames are closed by watching the
/// sequence tags: a frame closes as soon as its last record is accumulated,
/// and a frame whose trailing records were dropped still closes (degraded)
/// when a later frame's record arrives; kDropOldest credits from the producer discard the
/// oldest queued record. `stream_done` is an out-flag (set when the
/// sentinel is seen) rather than part of the totals so a caller unwinding
/// from an exception mid-consume can still tell whether the link needs
/// draining for the producer to finish.
template <typename Accumulate, typename CloseFrame, typename Hooks>
ConsumeTotals consume_stream(SpscRing<Block>& ring, const LinkParams& p,
                             std::atomic<std::uint64_t>& drop_credits,
                             bool& stream_done, Accumulate&& accumulate,
                             CloseFrame&& close_frame, Hooks hooks) {
    ConsumeTotals totals;
    std::uint64_t next_seq = 0;  // next record index expected

    // Per-frame degradation flags (a frame is degraded when at least one of
    // its records was dropped anywhere on the link).
    std::vector<std::uint8_t> degraded(p.frames, 0);
    const auto mark_dropped_range = [&](std::uint64_t first, std::uint64_t last) {
        // Records in [first, last) were lost; mark their frames.
        totals.records_dropped += last - first;
        hooks.dropped(last - first);
        for (std::uint64_t f = first / p.records_per_frame;
             f <= (last - 1) / p.records_per_frame; ++f)
            degraded[static_cast<std::size_t>(f)] = 1;
    };
    const auto close_through = [&](std::uint64_t frame_limit) {
        while (totals.frames_closed < frame_limit) {
            close_frame(static_cast<std::size_t>(totals.frames_closed),
                        totals.frames_closed < p.frames - 1);
            if (degraded[static_cast<std::size_t>(totals.frames_closed)] != 0) {
                ++totals.frames_degraded;
                hooks.frame_degraded();
            }
            ++totals.frames_closed;
        }
    };

    // Batch pop: drain up to consume_cap blocks per protocol round trip;
    // the per-block bookkeeping below is unchanged from per-record.
    std::vector<Block> popped(p.consume_cap);
    bool saw_end = false;
    while (!saw_end) {
        std::size_t got = ring.pop_batch(std::span(popped));
        if (got == 0) {
            WallTimer idle;
            ring.wait_for_data();
            got = ring.pop_batch(std::span(popped));
            HTIMS_DCHECK(got > 0, "wait_for_data returns with data queued");
            hooks.idle(idle.seconds());
        }
        hooks.popped(got);
        for (std::size_t b = 0; b < got; ++b) {
            const Block& block = popped[b];
            if (block.end) {
                // The sentinel is the stream's last block by construction;
                // nothing follows it in this batch.
                stream_done = true;
                saw_end = true;
                break;
            }
            if (block.seq > next_seq) mark_dropped_range(next_seq, block.seq);
            next_seq = block.seq + 1;
            close_through(block.seq / p.records_per_frame);

            // kDropOldest credits: this record is the oldest still queued —
            // discard it (counts as dropped, degrades its frame).
            std::uint64_t credits = drop_credits.load(std::memory_order_acquire);
            bool discard = false;
            while (credits > 0) {
                if (drop_credits.compare_exchange_weak(
                        credits, credits - 1, std::memory_order_acq_rel)) {
                    discard = true;
                    break;
                }
            }
            if (discard) {
                mark_dropped_range(block.seq, block.seq + 1);
                continue;
            }
            hooks.record();
            accumulate(block);
            // A frame's last record closes it now, not when the next
            // frame's first record arrives (a frame period later on a paced
            // stream). A discarded last record keeps the late close above.
            if ((block.seq + 1) % p.records_per_frame == 0)
                close_through((block.seq + 1) / p.records_per_frame);
        }
    }
    if (next_seq < p.records_total) mark_dropped_range(next_seq, p.records_total);
    close_through(p.frames);
    return totals;
}

/// Failure-path drain for a consumer that stopped early: discard the link's
/// records until the end sentinel, so the producer — which only exits
/// after delivering it — can finish and be joined.
inline void drain_to_end(SpscRing<Block>& ring) {
    for (;;) {
        auto block = ring.try_pop();
        if (!block) {
            ring.wait_for_data();
            continue;
        }
        if (block->end) return;
    }
}

}  // namespace htims::pipeline
