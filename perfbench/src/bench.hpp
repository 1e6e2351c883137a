// bench.hpp — shared pieces of the perfbench benchmark.
//
// perfbench drives the htims library's public API through three workloads
// (solo_burst, paced_fleet, record_replay; see NOTES.md for why each
// exists) and, in a separate traced run, through a ladder of single-layer
// measurements on the same inputs. Everything here is benchmark-side: the
// generator sources, the output check, the span recorder and the metric
// sink. Nothing in the library is modified or instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "analysis/library.hpp"
#include "analysis/stage.hpp"
#include "instrument/ion.hpp"
#include "pipeline/frame.hpp"
#include "pipeline/hybrid.hpp"
#include "prs/oversampled.hpp"

namespace perfbench {

using htims::pipeline::Frame;
using htims::pipeline::FrameLayout;

// ---- clock and process counters ---------------------------------------

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_seconds();

/// High-water resident set size of this process, in MB.
double peak_rss_mb();

// ---- statistics ---------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

/// The highest of a fixed percentile ladder that leaves at least ten
/// samples beyond it, for a sample of `n` values (50 when n < 20).
double tail_percentile(std::size_t n);

// ---- metrics ------------------------------------------------------------

/// `s` as a quoted JSON string (control characters dropped).
std::string json_string(const std::string& s);

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Ordered name -> (value, unit) sink; printed as the result's "metrics".
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit) {
        values_[name] = Metric{value, unit};
    }
    bool has(const std::string& name) const { return values_.count(name) != 0; }
    const std::map<std::string, Metric>& all() const { return values_; }
    std::string json() const;

private:
    std::map<std::string, Metric> values_;
};

// ---- spans --------------------------------------------------------------

/// In-memory span recorder for traced runs. Spans are appended under a
/// mutex (traced runs only; untraced runs never construct one) and written
/// out as Chrome trace events when the run ends.
class Tracer {
public:
    struct Span {
        std::string name;
        std::uint64_t id = 0;      ///< this span
        std::uint64_t parent = 0;  ///< 0 = root
        std::uint64_t frame = 0;   ///< frame id shared by a frame's spans
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
    };

    /// Record a finished span; returns its id.
    std::uint64_t record(const std::string& name, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::uint64_t parent = 0,
                         std::uint64_t frame = 0);
    /// Reserve an id for a parent span whose end is not known yet.
    std::uint64_t open_id() { return next_id_.fetch_add(1) + 1; }
    /// Record a span under a pre-reserved id.
    void record_as(std::uint64_t id, const std::string& name,
                   std::uint64_t start_ns, std::uint64_t end_ns,
                   std::uint64_t parent = 0, std::uint64_t frame = 0);

    std::size_t size() const;
    /// Self time per span name (duration minus the covered part of the
    /// span's direct children), in seconds.
    std::map<std::string, double> self_seconds() const;
    /// Total duration per span name, in seconds.
    std::map<std::string, double> total_seconds() const;
    /// Write every span as a Chrome trace-event JSON array.
    bool write_chrome_trace(const std::string& path) const;

private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::atomic<std::uint64_t> next_id_{0};
};

/// RAII span: records [construction, destruction) into `tracer` if set.
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, std::string name, std::uint64_t parent = 0)
        : tracer_(tracer), name_(std::move(name)), parent_(parent),
          id_(tracer ? tracer->open_id() : 0), start_(now_ns()) {}
    ~ScopedSpan() {
        if (tracer_) tracer_->record_as(id_, name_, start_, now_ns(), parent_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    std::uint64_t id() const { return id_; }

private:
    Tracer* tracer_;
    std::string name_;
    std::uint64_t parent_;
    std::uint64_t id_;
    std::uint64_t start_;
};

// ---- inputs -------------------------------------------------------------

/// One instrument stream's input: the acquisition's period template (what
/// the link carries) and the expected decoded frames, computed by direct
/// CPU and FPGA decodes outside any timed region.
struct StreamInput {
    htims::prs::OversampledPrs sequence{8, 2, htims::prs::GateMode::kPulsed};
    FrameLayout layout;
    std::vector<std::uint32_t> period;
    Frame stored;       ///< period as a float64 frame (what the store holds)
    Frame cpu_ref;      ///< CpuBackend::deconvolve of the accumulated frame
    Frame fpga_ref;     ///< FpgaPipeline::end_frame of the same records
    std::uint64_t cpu_digest = 0;   ///< pipeline::frame_digest(cpu_ref)
    std::uint64_t fpga_digest = 0;  ///< pipeline::frame_digest(fpga_ref)
};

struct Inputs {
    htims::instrument::SampleMixture mixture;
    std::vector<StreamInput> streams;
};

/// Periods accumulated per frame at the default config.
inline constexpr std::size_t kAverages = 4;
/// Samples per frame at the default config: 510 drift x 2048 m/z x 4.
inline constexpr double kSamplesPerFrame = 510.0 * 2048.0 * kAverages;
/// The instrument's native per-stream line rate that paced_fleet offers.
/// A constant, never derived from a capacity measured at run time.
inline constexpr double kLineRateSps = 65.09e6;

/// Live acquisitions at the default config (non-LC), one per stream, each
/// under its own seed derived from `seed`.
Inputs make_live_inputs(std::uint64_t seed, std::size_t streams);
/// `k` distinct LC-gradient acquisitions of one digest (lc_mode).
Inputs make_lc_inputs(std::uint64_t seed, std::size_t k);

/// Analysis stage config matching the inputs' m/z axis.
htims::analysis::AnalysisConfig analysis_config(const Inputs& inputs);

// ---- generator source ---------------------------------------------------

/// The benchmark's record generator. Wraps a library RecordSource (the
/// period template or a store ReplaySource) and observes, from outside,
/// when each record is offered: the first call (end of set-up), each
/// frame's first and last record, and, with a tracer, the time spent in
/// every call.
/// Frame-paced when `frame_period_ns` > 0: every record of frame f is due
/// at f * frame_period_ns after the producer starts, released as one burst.
class GeneratorSource final : public htims::pipeline::RecordSource {
public:
    GeneratorSource(htims::pipeline::RecordSource& inner,
                    const FrameLayout& layout, std::size_t averages,
                    std::size_t frames, std::uint64_t frame_period_ns,
                    Tracer* tracer);

    std::uint64_t total_records() const override { return inner_.total_records(); }
    std::span<const std::uint32_t> record(std::uint64_t seq) override;
    std::span<const std::uint32_t> record_block(std::uint64_t seq,
                                                std::size_t max_records) override;
    std::uint64_t release_ns(std::uint64_t seq) const override {
        return seq / records_per_frame_ * frame_period_ns_;
    }
    void set_window(std::size_t records) override { inner_.set_window(records); }

    /// When the producer first asked for a record (0 if never).
    std::uint64_t first_call_ns() const { return first_call_ns_; }
    bool paced() const { return frame_period_ns_ > 0; }
    /// When frame f fell due: its scheduled release for a paced source,
    /// the moment its first record was offered for an unpaced one.
    std::uint64_t released_ns(std::size_t frame) const;
    /// Due time of frame f's last record: its release for a paced source
    /// (the frame is one burst), the moment it was offered for an unpaced one.
    std::uint64_t due_ns(std::size_t frame) const;
    std::uint64_t first_record_ns(std::size_t frame) const { return first_[frame]; }
    std::uint64_t last_record_ns(std::size_t frame) const { return last_[frame]; }
    /// Lateness of frame f's release: when its first record was offered
    /// minus when it was due (0 for an unpaced source).
    double lateness_ms(std::size_t frame) const;

    std::uint64_t records() const { return records_; }
    std::uint64_t calls() const { return calls_; }
    double busy_seconds() const { return static_cast<double>(busy_ns_) * 1e-9; }

private:
    std::span<const std::uint32_t> observe(std::uint64_t seq,
                                           std::span<const std::uint32_t> rows,
                                           std::uint64_t t0);

    htims::pipeline::RecordSource& inner_;
    std::uint64_t records_per_frame_;
    std::size_t record_len_ = 0;
    std::uint64_t frame_period_ns_;
    Tracer* tracer_;
    std::uint64_t first_call_ns_ = 0;
    std::vector<std::uint64_t> first_;
    std::vector<std::uint64_t> last_;
    std::uint64_t records_ = 0;
    std::uint64_t calls_ = 0;
    std::uint64_t busy_ns_ = 0;
};

// ---- output check ---------------------------------------------------------

/// Per-frame verdicts of one pipeline run, filled from the ordered
/// emission point. Frames are compared bit for bit against their expected
/// decode; a frame never emitted, emitted twice or emitted wrong fails.
class FrameCheck {
public:
    /// `expected[i]` is what frame i must decode to (not owned).
    explicit FrameCheck(std::vector<const Frame*> expected);

    /// Record frame i's emission time and verdict. Called from the
    /// pipeline's emission section (serialized per stream).
    void emit(std::size_t index, const Frame& frame, std::uint64_t emit_ns);

    std::size_t attempted() const { return expected_.size(); }
    std::size_t failed() const;
    std::uint64_t emit_ns(std::size_t index) const { return emit_ns_[index]; }

private:
    std::vector<const Frame*> expected_;
    std::vector<std::uint64_t> emit_ns_;
    std::vector<std::uint8_t> state_;  ///< 0 missing, 1 ok, 2 bad
};

/// True when `stage`'s digest equals a fresh stage's sequential analyze()
/// pass over `frames` (per stream, in frame order).
bool analysis_matches(const htims::analysis::AnalysisStage& stage,
                      const htims::analysis::AnalysisConfig& config,
                      const htims::analysis::SpectralLibrary* library,
                      const std::vector<std::vector<const Frame*>>& frames);

// ---- workloads and layers -----------------------------------------------

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".";
};

struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool self_test_caught = false;
    Metrics metrics;  ///< end-to-end (untraced) or per-layer (traced)
};

/// Names the workloads this build knows.
const std::vector<std::string>& workload_names();

/// Run one workload. Untraced: every end-to-end metric. Traced: the
/// workload again with spans, the layer ladder, and every per-layer metric.
Outcome run_workload(const RunOptions& options);

/// Per-layer measurements and the layer ladder on a workload's inputs
/// (traced runs only). Metrics the workload already set are kept.
void measure_layers(const Inputs& inputs, const std::string& workdir,
                    Tracer& tracer, Metrics& out);

}  // namespace perfbench
