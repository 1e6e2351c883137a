// workloads.cpp — the three benchmark workloads, the generator source and
// the per-frame output check.
//
//   solo_burst     closed loop: one live CPU HybridPipeline, unpaced,
//                  overlap decode with 2 workers, analysis off (4 threads).
//   paced_fleet    open loop: FleetRunner, 2 CPU streams each paced at the
//                  instrument's native line rate, 2 shared workers, one
//                  shared AnalysisStage with a 200-entry library (6 threads).
//   record_replay  closed loop: K distinct LC acquisitions cycled into a
//                  frame store, replayed unpaced through the FPGA backend
//                  with 2 workers and analysis on (4 threads).
//
// Every workload runs with cpu_threads = 1, so no CpuBackend pool thread
// exists. A run is a sequence of repetitions ("reps"); each rep builds the
// system, streams a fixed number of frames, and checks every emitted frame
// outside the timed region. Figures are medians over reps.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "pipeline/fleet.hpp"
#include "store/frame_store.hpp"
#include "store/replay.hpp"

namespace perfbench {

namespace hp = htims::pipeline;
namespace ha = htims::analysis;

// ---- generator source ---------------------------------------------------

GeneratorSource::GeneratorSource(hp::RecordSource& inner,
                                 const FrameLayout& layout,
                                 std::size_t averages, std::size_t frames,
                                 std::uint64_t frame_period_ns, Tracer* tracer)
    : inner_(inner),
      records_per_frame_(static_cast<std::uint64_t>(averages) * layout.drift_bins),
      record_len_(layout.mz_bins),
      frame_period_ns_(frame_period_ns),
      tracer_(tracer),
      first_(frames, 0),
      last_(frames, 0) {}

std::span<const std::uint32_t> GeneratorSource::record(std::uint64_t seq) {
    const std::uint64_t t0 = now_ns();
    return observe(seq, inner_.record(seq), t0);
}

std::span<const std::uint32_t> GeneratorSource::record_block(
    std::uint64_t seq, std::size_t max_records) {
    const std::uint64_t t0 = now_ns();
    return observe(seq, inner_.record_block(seq, max_records), t0);
}

std::span<const std::uint32_t> GeneratorSource::observe(
    std::uint64_t seq, std::span<const std::uint32_t> rows, std::uint64_t t0) {
    const std::uint64_t k = rows.size() / record_len_;
    if (first_call_ns_ == 0) first_call_ns_ = t0;
    if (seq % records_per_frame_ == 0)
        first_[static_cast<std::size_t>(seq / records_per_frame_)] = t0;
    const std::uint64_t end = seq + k;
    std::uint64_t t1 = 0;
    if (end % records_per_frame_ == 0) {
        t1 = now_ns();
        last_[static_cast<std::size_t>((end - 1) / records_per_frame_)] = t1;
    }
    records_ += k;
    ++calls_;
    if (tracer_ != nullptr) busy_ns_ += (t1 != 0 ? t1 : now_ns()) - t0;
    return rows;
}

std::uint64_t GeneratorSource::released_ns(std::size_t frame) const {
    if (frame_period_ns_ == 0) return first_[frame];
    return first_call_ns_ + frame * frame_period_ns_;
}

std::uint64_t GeneratorSource::due_ns(std::size_t frame) const {
    if (frame_period_ns_ == 0) return last_[frame];
    return released_ns(frame);
}

double GeneratorSource::lateness_ms(std::size_t frame) const {
    if (frame_period_ns_ == 0) return 0.0;
    const std::uint64_t due = first_call_ns_ + frame * frame_period_ns_;
    return first_[frame] > due ? static_cast<double>(first_[frame] - due) * 1e-6
                               : 0.0;
}

// ---- output check ---------------------------------------------------------

FrameCheck::FrameCheck(std::vector<const Frame*> expected)
    : expected_(std::move(expected)),
      emit_ns_(expected_.size(), 0),
      state_(expected_.size(), 0) {}

void FrameCheck::emit(std::size_t index, const Frame& frame,
                      std::uint64_t emit_ns) {
    if (index >= expected_.size()) return;  // an unknown frame never passes
    const Frame& want = *expected_[index];
    const bool same =
        frame.layout() == want.layout() &&
        std::memcmp(frame.data().data(), want.data().data(),
                    want.data().size() * sizeof(double)) == 0;
    state_[index] = (state_[index] == 0 && same) ? 1 : 2;
    emit_ns_[index] = emit_ns;
}

std::size_t FrameCheck::failed() const {
    return static_cast<std::size_t>(
        std::count_if(state_.begin(), state_.end(),
                      [](std::uint8_t s) { return s != 1; }));
}

bool analysis_matches(const ha::AnalysisStage& stage,
                      const ha::AnalysisConfig& config,
                      const ha::SpectralLibrary* library,
                      const std::vector<std::vector<const Frame*>>& frames) {
    ha::AnalysisStage sequential(config);
    sequential.set_library(library);
    for (std::size_t s = 0; s < frames.size(); ++s)
        for (std::size_t f = 0; f < frames[s].size(); ++f)
            sequential.analyze(static_cast<std::uint32_t>(s), f, *frames[s][f]);
    return sequential.digest() == stage.digest();
}

namespace {

// ---- one repetition -----------------------------------------------------

/// What one rep measured. Layer fields are filled on traced reps only
/// where they need extra clock reads; the rest come free from reports.
struct Rep {
    double setup_s = 0.0;    ///< build start -> first record offered
    double run_s = 0.0;      ///< run() wall time
    double samples = 0.0;    ///< raw samples streamed
    double cpu_s = 0.0;      ///< process CPU seconds during run()
    std::vector<double> latency_ms;   ///< per frame, due -> emission
    std::vector<double> lateness_ms;  ///< per paced frame > 0
    std::vector<double> first_tenth_ms, last_tenth_ms;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    // layer-facing
    double source_records = 0.0, source_calls = 0.0, source_busy_s = 0.0;
    double stall_s = 0.0, idle_s = 0.0, dwait_s = 0.0;  ///< summed over streams
    double fleet_p50_ms = 0.0, fleet_p99_ms = 0.0;       ///< fleet runs only
    double clusters = -1.0;  ///< < 0: analysis off
};

/// Frames at the start of each stream whose latency is not counted. They
/// pay start-up costs a real, hours-long acquisition pays once: fleet decode
/// workers build a stream's decoder on the first frame they see from it,
/// and a fresh pipeline's first frames meet empty queues.
constexpr std::size_t kWarmupFrames = 2;

/// Per-frame latencies and (traced) frame spans of one stream.
void collect_frames(const GeneratorSource& gen, const FrameCheck& check,
                    std::size_t frames, Tracer* tracer, Rep& rep) {
    const std::size_t counted = frames > kWarmupFrames ? frames - kWarmupFrames : 0;
    const std::size_t tenth = std::max<std::size_t>(1, counted / 10);
    for (std::size_t f = 0; f < frames; ++f) {
        const std::uint64_t emit = check.emit_ns(f);
        if (emit == 0) continue;  // never emitted: already a failed frame
        const std::uint64_t due = gen.due_ns(f);
        const double lat = emit > due ? static_cast<double>(emit - due) * 1e-6 : 0.0;
        if (f >= kWarmupFrames) {
            rep.latency_ms.push_back(lat);
            if (f < kWarmupFrames + tenth) rep.first_tenth_ms.push_back(lat);
            if (f >= frames - tenth) rep.last_tenth_ms.push_back(lat);
            if (gen.paced()) rep.lateness_ms.push_back(gen.lateness_ms(f));
        }
        if (tracer != nullptr) {
            // Release: when the frame fell due -> its first record offered;
            // stream: first -> last record offered; emit: last record ->
            // ordered emission (accumulate, decode, analysis, check wait).
            const std::uint64_t id = tracer->open_id();  // unique per frame
            const std::uint64_t release = gen.released_ns(f);
            const std::uint64_t root =
                tracer->record("frame", release, emit, 0, id);
            tracer->record("frame.release", release, gen.first_record_ns(f), root, id);
            tracer->record("frame.stream", gen.first_record_ns(f),
                           gen.last_record_ns(f), root, id);
            tracer->record("frame.emit", gen.last_record_ns(f), emit, root, id);
        }
    }
}

Frame wrong_copy(const Frame& f) {
    Frame w = f;
    w.data()[w.data().size() / 2] += 1.0;
    return w;
}


// ---- solo_burst ---------------------------------------------------------

Rep solo_rep(const Inputs& in, std::size_t frames, Tracer* tracer,
             const Frame& expected) {
    const StreamInput& s = in.streams[0];
    Rep rep;
    FrameCheck check(std::vector<const Frame*>(frames, &expected));

    const std::uint64_t t_setup = now_ns();
    hp::PeriodTemplateSource tmpl(s.period, s.layout, frames, kAverages);
    GeneratorSource gen(tmpl, s.layout, kAverages, frames, 0, tracer);
    hp::HybridConfig cfg;
    cfg.backend = hp::BackendKind::kCpu;
    cfg.frames = frames;
    cfg.averages = kAverages;
    cfg.cpu_threads = 1;
    cfg.overlap_decode = true;
    cfg.decode_workers = 2;
    cfg.frame_sink = [&](std::size_t i, const Frame& f) {
        check.emit(i, f, now_ns());
    };
    hp::HybridPipeline pipe(s.sequence, s.layout, gen, cfg);

    const double cpu0 = process_cpu_seconds();
    const std::uint64_t t_run = now_ns();
    const hp::HybridReport report = pipe.run();
    rep.run_s = static_cast<double>(now_ns() - t_run) * 1e-9;
    rep.cpu_s = process_cpu_seconds() - cpu0;
    rep.setup_s = static_cast<double>(gen.first_call_ns() - t_setup) * 1e-9;
    rep.samples = static_cast<double>(report.samples);

    rep.attempted = check.attempted();
    rep.failed = std::max<std::size_t>(check.failed(), report.frames_degraded);
    collect_frames(gen, check, frames, tracer, rep);
    rep.source_records = static_cast<double>(gen.records());
    rep.source_calls = static_cast<double>(gen.calls());
    rep.source_busy_s = gen.busy_seconds();
    rep.stall_s = report.producer_stall_seconds;
    rep.idle_s = report.consumer_idle_seconds;
    rep.dwait_s = report.decode_wait_seconds;
    return rep;
}

// ---- paced_fleet --------------------------------------------------------

constexpr std::size_t kFleetStreams = 2;

Rep paced_rep(const Inputs& in, std::size_t frames, Tracer* tracer,
              const std::vector<const Frame*>& expected, bool check_analysis) {
    Rep rep;
    const auto period_ns = static_cast<std::uint64_t>(
        std::llround(kSamplesPerFrame / kLineRateSps * 1e9));
    std::vector<std::unique_ptr<FrameCheck>> checks;
    for (std::size_t s = 0; s < kFleetStreams; ++s)
        checks.push_back(std::make_unique<FrameCheck>(
            std::vector<const Frame*>(frames, expected[s])));

    const std::uint64_t t_setup = now_ns();
    const ha::AnalysisConfig acfg = analysis_config(in);
    ha::AnalysisStage stage(acfg);
    const ha::SpectralLibrary library(stage.encoder(), in.mixture);
    stage.set_library(&library);

    std::vector<std::unique_ptr<hp::PeriodTemplateSource>> templates;
    std::vector<std::unique_ptr<GeneratorSource>> gens;
    std::vector<hp::FleetStream> streams;
    for (std::size_t s = 0; s < kFleetStreams; ++s) {
        const StreamInput& si = in.streams[s];
        templates.push_back(std::make_unique<hp::PeriodTemplateSource>(
            si.period, si.layout, frames, kAverages));
        gens.push_back(std::make_unique<GeneratorSource>(
            *templates.back(), si.layout, kAverages, frames, period_ns, tracer));
        hp::HybridConfig cfg;
        cfg.backend = hp::BackendKind::kCpu;
        cfg.frames = frames;
        cfg.averages = kAverages;
        cfg.cpu_threads = 1;
        // Analysis runs inside the sink, at the same ordered emission point
        // as HybridConfig::analysis, so the emission stamp taken after it
        // includes analysis in the frame's latency.
        FrameCheck* check = checks[s].get();
        cfg.frame_sink = [&stage, check, s](std::size_t i, const Frame& f) {
            stage.analyze(static_cast<std::uint32_t>(s), i, f);
            check->emit(i, f, now_ns());
        };
        streams.push_back(hp::FleetStream{si.sequence, si.layout, cfg, {},
                                          gens.back().get()});
    }
    hp::FleetConfig fcfg;
    fcfg.decode_workers = 2;
    hp::FleetRunner runner(std::move(streams), fcfg);

    const double cpu0 = process_cpu_seconds();
    const std::uint64_t t_run = now_ns();
    const hp::FleetReport report = runner.run();
    rep.run_s = static_cast<double>(now_ns() - t_run) * 1e-9;
    rep.cpu_s = process_cpu_seconds() - cpu0;
    std::uint64_t first = ~std::uint64_t{0};
    for (const auto& g : gens) first = std::min(first, g->first_call_ns());
    rep.setup_s = static_cast<double>(first - t_setup) * 1e-9;
    rep.samples = static_cast<double>(report.samples);

    for (std::size_t s = 0; s < kFleetStreams; ++s) {
        rep.attempted += checks[s]->attempted();
        rep.failed += std::max<std::size_t>(
            checks[s]->failed(), report.streams[s].report.frames_degraded);
        collect_frames(*gens[s], *checks[s], frames, tracer, rep);
        rep.source_records += static_cast<double>(gens[s]->records());
        rep.source_calls += static_cast<double>(gens[s]->calls());
        rep.source_busy_s += gens[s]->busy_seconds();
        const hp::HybridReport& r = report.streams[s].report;
        rep.stall_s += r.producer_stall_seconds;
        rep.idle_s += r.consumer_idle_seconds;
        rep.dwait_s += r.decode_wait_seconds;
    }
    rep.fleet_p50_ms = report.frame_latency.p50 * 1e-6;
    rep.fleet_p99_ms = report.frame_latency.p99 * 1e-6;
    rep.clusters = static_cast<double>(stage.report().clusters);

    if (check_analysis) {
        std::vector<std::vector<const Frame*>> seq(kFleetStreams);
        for (std::size_t s = 0; s < kFleetStreams; ++s)
            seq[s].assign(frames, &in.streams[s].cpu_ref);
        if (!analysis_matches(stage, acfg, &library, seq)) {
            std::printf("check: paced_fleet analysis digest differs from a "
                        "sequential analyze() pass\n");
            rep.failed = rep.attempted;
        }
    }
    return rep;
}

// ---- record_replay ------------------------------------------------------

Rep replay_rep(const Inputs& in, std::size_t frames, Tracer* tracer,
               const std::vector<const Frame*>& expected,
               const std::string& store_path, bool check_analysis) {
    Rep rep;
    const std::size_t k = in.streams.size();
    std::vector<const Frame*> per_frame(frames);
    for (std::size_t f = 0; f < frames; ++f) per_frame[f] = expected[f % k];
    FrameCheck check(per_frame);
    const StreamInput& s0 = in.streams[0];

    const std::uint64_t t_setup = now_ns();
    {
        htims::store::FrameStoreWriter writer(
            store_path, htims::store::StoreMeta{s0.layout, kAverages});
        for (std::size_t f = 0; f < frames; ++f)
            writer.append(in.streams[f % k].stored, f);
        writer.finalize();
    }
    const htims::store::FrameStoreReader reader(store_path);
    htims::store::ReplaySource replay(reader, htims::store::ReplayConfig{});
    GeneratorSource gen(replay, s0.layout, kAverages, frames, 0, tracer);
    const ha::AnalysisConfig acfg = analysis_config(in);
    ha::AnalysisStage stage(acfg);
    const ha::SpectralLibrary library(stage.encoder(), in.mixture);
    stage.set_library(&library);
    hp::HybridConfig cfg;
    cfg.backend = hp::BackendKind::kFpga;
    cfg.frames = frames;
    cfg.averages = kAverages;
    cfg.cpu_threads = 1;
    cfg.overlap_decode = true;
    cfg.decode_workers = 2;
    cfg.analysis = &stage;
    cfg.frame_sink = [&](std::size_t i, const Frame& f) {
        check.emit(i, f, now_ns());
    };
    hp::HybridPipeline pipe(s0.sequence, s0.layout, gen, cfg);

    const double cpu0 = process_cpu_seconds();
    const std::uint64_t t_run = now_ns();
    const hp::HybridReport report = pipe.run();
    rep.run_s = static_cast<double>(now_ns() - t_run) * 1e-9;
    rep.cpu_s = process_cpu_seconds() - cpu0;
    rep.setup_s = static_cast<double>(gen.first_call_ns() - t_setup) * 1e-9;
    rep.samples = static_cast<double>(report.samples);

    rep.attempted = check.attempted();
    rep.failed = std::max<std::size_t>(check.failed(), report.frames_degraded);
    if (replay.skipped() != 0) rep.failed = rep.attempted;
    collect_frames(gen, check, frames, tracer, rep);
    rep.source_records = static_cast<double>(gen.records());
    rep.source_calls = static_cast<double>(gen.calls());
    rep.source_busy_s = gen.busy_seconds();
    rep.stall_s = report.producer_stall_seconds;
    rep.idle_s = report.consumer_idle_seconds;
    rep.dwait_s = report.decode_wait_seconds;
    rep.clusters = static_cast<double>(stage.report().clusters);

    if (check_analysis) {
        std::vector<std::vector<const Frame*>> seq(1);
        for (std::size_t f = 0; f < frames; ++f)
            seq[0].push_back(&in.streams[f % k].fpga_ref);
        if (!analysis_matches(stage, acfg, &library, seq)) {
            std::printf("check: record_replay analysis digest differs from a "
                        "sequential analyze() pass\n");
            rep.failed = rep.attempted;
        }
    }
    std::remove(store_path.c_str());
    return rep;
}

// ---- workload table -------------------------------------------------------

struct Workload {
    std::string name;
    std::size_t frames = 0;    ///< frames per stream per rep
    std::size_t min_reps = 0;  ///< closed loops: at least this many reps
    bool paced = false;        ///< open loop: rep count fixed by --seconds
    std::size_t streams_per_rep = 1;
    std::function<Inputs(std::uint64_t)> inputs;
    /// One rep; `wrong` swaps in deliberately wrong references.
    std::function<Rep(const Inputs&, std::size_t frames, Tracer*, bool wrong,
                      bool check_analysis)>
        rep;
};

/// Each input's expected decode (`ref`), or for the self-test deliberately
/// wrong copies of them, held in `wrong_storage`.
std::vector<const Frame*> references(const Inputs& in, Frame StreamInput::*ref,
                                     bool wrong, std::vector<Frame>& wrong_storage) {
    std::vector<const Frame*> out;
    wrong_storage.reserve(wrong_storage.size() + in.streams.size());  // no moves
    for (const StreamInput& s : in.streams) {
        if (wrong) wrong_storage.push_back(wrong_copy(s.*ref));
        out.push_back(wrong ? &wrong_storage.back() : &(s.*ref));
    }
    return out;
}

std::vector<Workload> make_workloads(const std::string& workdir) {
    std::vector<Workload> w;
    w.push_back(Workload{
        "solo_burst", 32, 8, false, 1,
        [](std::uint64_t seed) { return make_live_inputs(seed, 1); },
        [](const Inputs& in, std::size_t frames, Tracer* tr, bool wrong, bool) {
            std::vector<Frame> storage;
            const auto refs = references(in, &StreamInput::cpu_ref, wrong, storage);
            return solo_rep(in, frames, tr, *refs[0]);
        }});
    w.push_back(Workload{
        "paced_fleet", 32, 0, true, kFleetStreams,
        [](std::uint64_t seed) { return make_live_inputs(seed, kFleetStreams); },
        [](const Inputs& in, std::size_t frames, Tracer* tr, bool wrong,
           bool check_analysis) {
            std::vector<Frame> storage;
            const auto refs = references(in, &StreamInput::cpu_ref, wrong, storage);
            return paced_rep(in, frames, tr, refs, check_analysis);
        }});
    const std::string store_path = workdir + "/record_replay.htstore";
    w.push_back(Workload{
        "record_replay", 8, 10, false, 1,
        [](std::uint64_t seed) { return make_lc_inputs(seed, 4); },
        [store_path](const Inputs& in, std::size_t frames, Tracer* tr,
                     bool wrong, bool check_analysis) {
            std::vector<Frame> storage;
            const auto refs = references(in, &StreamInput::fpga_ref, wrong, storage);
            return replay_rep(in, frames, tr, refs, store_path, check_analysis);
        }});
    return w;
}

double frame_period_s() { return kSamplesPerFrame / kLineRateSps; }

/// Paced reps are fixed by --seconds (the schedule is the workload), so
/// the number of latency samples — and the tail percentile — never varies.
std::size_t paced_reps(const Workload& w, double seconds) {
    const double rep_s = static_cast<double>(w.frames) * frame_period_s();
    return std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(seconds / rep_s)));
}

std::vector<double> pick(const std::vector<Rep>& reps,
                         const std::function<double(const Rep&)>& f) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r));
    return v;
}

std::vector<double> pooled(const std::vector<Rep>& reps,
                           std::vector<double> Rep::*field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.insert(v.end(), (r.*field).begin(), (r.*field).end());
    return v;
}

struct RepSet {
    std::vector<Rep> plain;
    std::vector<Rep> traced;
    /// Process high-water RSS after the first rep. Later reps rebuild the
    /// same system, and how much freed memory the allocator keeps across
    /// those rebuilds varies from run to run; one long acquisition never
    /// rebuilds, so its peak is the one-rep peak.
    double rss_after_first_mb = 0.0;
};

/// Run reps until `seconds` of wall time, not counting output checks, have
/// passed (closed loops, at least `min_reps`) or the fixed paced count.
/// `tracer_for(i)` says whether rep i records spans.
RepSet run_reps(const Workload& w, const Inputs& in, double seconds,
                std::size_t min_reps,
                const std::function<Tracer*(std::size_t)>& tracer_for) {
    RepSet set;
    const std::uint64_t t0 = now_ns();
    const std::size_t fixed = w.paced ? paced_reps(w, seconds) : 0;
    double check_s = 0.0;  // output checks are not measurement time
    for (std::size_t i = 0;; ++i) {
        const double elapsed =
            static_cast<double>(now_ns() - t0) * 1e-9 - check_s;
        if (w.paced ? i >= fixed : (i >= min_reps && elapsed >= seconds)) break;
        Tracer* tr = tracer_for(i);
        const std::uint64_t r0 = now_ns();
        Rep rep = w.rep(in, w.frames, tr, false, true);
        const double rep_s = static_cast<double>(now_ns() - r0) * 1e-9;
        check_s += std::max(0.0, rep_s - rep.run_s - rep.setup_s);
        if (i == 0) set.rss_after_first_mb = peak_rss_mb();
        (tr != nullptr ? set.traced : set.plain).push_back(std::move(rep));
    }
    return set;
}

void set_end_to_end(const Workload& w, const std::vector<Rep>& reps,
                    std::size_t n_min, Metrics& m, bool& backlog) {
    const std::vector<double> per_rep =
        pick(reps, [](const Rep& r) { return r.samples / r.run_s * 1e-6; });
    m.set("throughput_msps", median(per_rep), "Msamples/s");
    const std::vector<double> lat = pooled(reps, &Rep::latency_ms);
    const double tail_p = tail_percentile(n_min);
    m.set("latency_p50_ms", quantile(lat, 0.5), "ms");
    m.set("latency_tail_ms", quantile(lat, tail_p / 100.0), "ms");
    m.set("cpu_s_per_gsample",
          median(pick(reps, [](const Rep& r) { return r.cpu_s / r.samples * 1e9; })),
          "s/Gsample");
    m.set("setup_s", median(pick(reps, [](const Rep& r) { return r.setup_s; })), "s");
    std::printf("throughput per rep (Msamples/s) over %zu reps: min %.2f q1 %.2f "
                "median %.2f q3 %.2f max %.2f\n",
                per_rep.size(), quantile(per_rep, 0), quantile(per_rep, 0.25),
                quantile(per_rep, 0.5), quantile(per_rep, 0.75), quantile(per_rep, 1));
    std::printf("latency: p50 and p%.1f over %zu frames (%s)\n", tail_p, lat.size(),
                w.paced ? "due time of the frame's last record -> ordered "
                          "emission, analysis included"
                        : "closed loop: last record offered -> ordered "
                          "emission, the frame's residence in a saturated "
                          "pipeline");

    backlog = false;
    if (w.paced) {
        const double offered = static_cast<double>(w.streams_per_rep) * kLineRateSps * 1e-6;
        const double delivered = m.all().at("throughput_msps").value;
        const double first = median(pooled(reps, &Rep::first_tenth_ms));
        const double last = median(pooled(reps, &Rep::last_tenth_ms));
        const std::vector<double> late = pooled(reps, &Rep::lateness_ms);
        std::printf("paced: offered %.2f Msps, delivered %.2f Msps; latency "
                    "first tenth %.2f ms, last tenth %.2f ms; source lateness "
                    "p50 %.3f ms max %.3f ms\n",
                    offered, delivered, first, last, quantile(late, 0.5),
                    late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()));
        // A shortfall against the offered rate, or latency that climbs
        // through the run, means a backlog is growing: the figures then
        // measure queue growth, not latency.
        if (delivered < 0.95 * offered || last > 1.25 * first + 5.0) {
            backlog = true;
            std::printf("BACKLOG: paced_fleet did not keep up with the offered "
                        "rate; latency figures measure a growing queue\n");
        }
    }
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Workload& w : make_workloads(".")) out.push_back(w.name);
        return out;
    }();
    return names;
}

Outcome run_workload(const RunOptions& opt) {
    const std::vector<Workload> all = make_workloads(opt.workdir);
    const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
        return w.name == opt.workload;
    });
    if (it == all.end()) throw std::invalid_argument("unknown workload " + opt.workload);
    const Workload& w = *it;

    const std::uint64_t g0 = now_ns();
    const Inputs inputs = w.inputs(opt.seed);
    std::printf("inputs: %zu acquisition(s) in %.2f s; reference digests",
                inputs.streams.size(), static_cast<double>(now_ns() - g0) * 1e-9);
    for (const auto& s : inputs.streams)
        std::printf(" cpu=%016llx fpga=%016llx",
                    static_cast<unsigned long long>(s.cpu_digest),
                    static_cast<unsigned long long>(s.fpga_digest));
    std::printf("\n");

    Outcome out;
    // Self-test first (it doubles as the warm-up rep): the same workload
    // against deliberately wrong references must fail every frame.
    {
        const Rep bad = w.rep(inputs, 3, nullptr, true, false);
        out.self_test_caught = bad.attempted > 0 && bad.failed == bad.attempted;
        std::printf("self-test: wrong reference %s (%zu of %zu frames flagged)\n",
                    out.self_test_caught ? "caught" : "NOT caught", bad.failed,
                    bad.attempted);
    }

    // Latency samples a run is guaranteed to collect; the tail percentile
    // is chosen from this, so it is the same on every run of a workload.
    const std::size_t per_rep = (w.frames - kWarmupFrames) * w.streams_per_rep;
    const std::size_t n_min =
        (w.paced ? paced_reps(w, opt.seconds) : w.min_reps) * per_rep;

    if (!opt.trace) {
        const RepSet set = run_reps(w, inputs, opt.seconds, w.min_reps,
                                    [](std::size_t) { return nullptr; });
        const std::vector<Rep>& reps = set.plain;
        for (const Rep& r : reps) {
            out.attempted += r.attempted;
            out.failed += r.failed;
        }
        bool backlog = false;
        set_end_to_end(w, reps, n_min, out.metrics, backlog);
        out.metrics.set("peak_rss_mb", set.rss_after_first_mb, "MB");
        std::printf("peak RSS: %.1f MB after the first rep, %.1f MB after all reps\n",
                    set.rss_after_first_mb, peak_rss_mb());
        std::printf("reps: %zu; frames attempted %llu, failed %llu "
                    "(failed_ratio %.6f)\n",
                    reps.size(), static_cast<unsigned long long>(out.attempted),
                    static_cast<unsigned long long>(out.failed),
                    out.attempted ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 1.0);
        return out;
    }

    // Traced run: untraced and traced reps alternate over the same time
    // budget, so the overhead compares like with like; then the layer
    // ladder on the same inputs.
    Tracer tracer;
    const std::size_t half_min = std::max<std::size_t>(2, w.min_reps / 2);
    const RepSet set = run_reps(
        w, inputs, opt.seconds, 2 * half_min,
        [&](std::size_t i) { return i % 2 == 1 ? &tracer : nullptr; });
    const std::vector<Rep>& plain = set.plain;
    const std::vector<Rep>& traced = set.traced;
    for (const std::vector<Rep>* reps : {&plain, &traced})
        for (const Rep& r : *reps) {
            out.attempted += r.attempted;
            out.failed += r.failed;
        }

    Metrics plain_m, traced_m;
    bool backlog_plain = false, backlog_traced = false;
    const std::size_t n_half =
        (w.paced ? paced_reps(w, opt.seconds) / 2 : half_min) * per_rep;
    set_end_to_end(w, plain, n_half, plain_m, backlog_plain);
    set_end_to_end(w, traced, n_half, traced_m, backlog_traced);
    // Overhead on the workload's headline figure: latency for the open
    // loop (its throughput is fixed by the schedule), throughput otherwise.
    const std::string key = w.paced ? "latency_p50_ms" : "throughput_msps";
    const double a = plain_m.all().at(key).value;
    const double b = traced_m.all().at(key).value;
    const double overhead = w.paced ? (b / a - 1.0) * 100.0 : (a / b - 1.0) * 100.0;
    std::printf("trace overhead on %s: untraced %.3f, traced %.3f (%+.2f%%)\n",
                key.c_str(), a, b, overhead);

    Metrics& m = out.metrics;
    m.set("trace.overhead_pct", overhead, "%");
    const auto mean = [&](double Rep::*f) {
        double s = 0.0;
        for (const Rep& r : traced) s += r.*f;
        return traced.empty() ? 0.0 : s / static_cast<double>(traced.size());
    };
    m.set("source.records", mean(&Rep::source_records), "count");
    m.set("source.records_per_call",
          mean(&Rep::source_records) / std::max(1.0, mean(&Rep::source_calls)), "ratio");
    m.set("source.busy_s", mean(&Rep::source_busy_s), "s");
    const std::vector<double> late = pooled(traced, &Rep::lateness_ms);
    m.set("source.lateness_p50_ms", quantile(late, 0.5), "ms");
    m.set("source.lateness_max_ms",
          late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()), "ms");
    m.set("source.backlog_flag", backlog_plain || backlog_traced ? 1.0 : 0.0, "count");
    m.set("hybrid.producer_stall_s", mean(&Rep::stall_s), "s");
    m.set("hybrid.consumer_idle_s", mean(&Rep::idle_s), "s");
    m.set("hybrid.decode_wait_s", mean(&Rep::dwait_s), "s");
    if (w.paced) {
        m.set("fleet.dispatch_to_emit_p50_ms",
              median(pick(traced, [](const Rep& r) { return r.fleet_p50_ms; })), "ms");
        m.set("fleet.dispatch_to_emit_p99_ms",
              median(pick(traced, [](const Rep& r) { return r.fleet_p99_ms; })), "ms");
        m.set("fleet.decode_wait_s", mean(&Rep::dwait_s), "s");
        m.set("fleet.consumer_idle_s", mean(&Rep::idle_s), "s");
    }
    if (!traced.empty() && traced.back().clusters >= 0.0)
        m.set("analysis.clusters", traced.back().clusters, "count");

    measure_layers(inputs, opt.workdir, tracer, m);

    std::printf("self time by span (s):\n");
    const auto self = tracer.self_seconds();
    const auto total = tracer.total_seconds();
    for (const auto& [name, secs] : self)
        std::printf("  %-28s self %10.6f  total %10.6f\n", name.c_str(), secs,
                    total.at(name));
    const double nframes = static_cast<double>(pooled(traced, &Rep::latency_ms).size());
    for (const char* phase : {"frame.release", "frame.stream", "frame.emit"}) {
        const auto f = self.find(phase);
        m.set(std::string("selftime.") + phase + "_ms",
              f == self.end() || nframes == 0 ? 0.0 : f->second / nframes * 1e3, "ms");
    }
    for (const char* layer : {"layer.ring", "layer.accumulate", "layer.cpu_backend",
                              "layer.fpga", "layer.store", "layer.analysis"}) {
        const auto f = self.find(layer);
        m.set(std::string("selftime.") + layer + "_s",
              f == self.end() ? 0.0 : f->second, "s");
    }
    m.set("trace.spans", static_cast<double>(tracer.size()), "count");
    m.set("check.failed_ratio",
          out.attempted ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0,
          "ratio");
    m.set("check.selftest_caught", out.self_test_caught ? 1.0 : 0.0, "count");

    const std::string path = opt.workdir + "/trace_" + w.name + "_seed" +
                             std::to_string(opt.seed) + ".json";
    if (tracer.write_chrome_trace(path))
        std::printf("trace: %zu spans written to %s\n", tracer.size(), path.c_str());
    return out;
}

}  // namespace perfbench
