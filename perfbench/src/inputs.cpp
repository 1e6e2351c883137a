// inputs.cpp — workload inputs from the instrument simulator, plus the
// expected decodes every emitted frame is checked against.
#include <stdexcept>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "instrument/esi_source.hpp"
#include "instrument/peptide_library.hpp"
#include "pipeline/acquisition.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/fpga.hpp"
#include "pipeline/frame_io.hpp"
#include "store/replay.hpp"

namespace perfbench {

namespace hp = htims::pipeline;

namespace {

htims::instrument::SampleMixture digest_for(std::uint64_t seed) {
    htims::instrument::PeptideLibraryConfig lib;
    lib.count = 200;
    lib.seed = seed;
    return htims::instrument::make_tryptic_digest(lib);
}

/// Acquire one frame at LC time `t_s` and derive everything the workloads
/// and the check need from it.
StreamInput acquire(const htims::instrument::SampleMixture& mixture,
                    bool lc_mode, std::uint64_t acquisition_seed, double t_s) {
    htims::core::SimulatorConfig cfg = htims::core::default_config();
    cfg.acquisition.seed = acquisition_seed;
    hp::AcquisitionEngine engine(cfg.cell, cfg.tof, cfg.detector, cfg.trap,
                                 htims::instrument::EsiSource(mixture, lc_mode),
                                 cfg.acquisition);
    const hp::AcquisitionResult acquired = engine.acquire(t_s);
    const std::size_t averages = cfg.acquisition.averages;
    if (averages != kAverages ||
        static_cast<double>(engine.layout().cells() * averages) != kSamplesPerFrame)
        throw std::runtime_error("default_config() no longer matches the "
                                 "benchmark's frame shape");

    StreamInput in;
    in.sequence = engine.sequence();
    in.layout = engine.layout();
    in.period = hp::to_period_samples(acquired.raw, averages);
    in.stored = htims::store::period_to_frame(in.layout, in.period);

    // What the consumer accumulates: `averages` passes over the template,
    // each sample widened to double — exact integers, so scaling is exact.
    Frame accumulated = in.stored;
    accumulated.scale(static_cast<double>(averages));
    hp::CpuBackend cpu(in.sequence, in.layout, 1);
    in.cpu_ref = cpu.deconvolve(accumulated);

    hp::FpgaPipeline fpga(in.sequence, in.layout, hp::FpgaConfig{});
    fpga.begin_frame();
    for (std::size_t a = 0; a < averages; ++a) fpga.push_samples(in.period);
    in.fpga_ref = fpga.end_frame();

    in.cpu_digest = hp::frame_digest(in.cpu_ref);
    in.fpga_digest = hp::frame_digest(in.fpga_ref);
    return in;
}

}  // namespace

Inputs make_live_inputs(std::uint64_t seed, std::size_t streams) {
    Inputs inputs;
    inputs.mixture = digest_for(seed);
    for (std::size_t s = 0; s < streams; ++s)
        inputs.streams.push_back(
            acquire(inputs.mixture, false, seed * 1000003 + s + 1, 0.0));
    return inputs;
}

Inputs make_lc_inputs(std::uint64_t seed, std::size_t k) {
    Inputs inputs;
    inputs.mixture = digest_for(seed);
    // Evenly spaced LC time points across the digest's 60-840 s gradient,
    // so each acquisition sees a different set of eluting species.
    for (std::size_t i = 0; i < k; ++i) {
        const double t = 60.0 + 780.0 * (static_cast<double>(i) + 0.5) /
                                    static_cast<double>(k);
        inputs.streams.push_back(
            acquire(inputs.mixture, true, seed * 1000003 + i + 1, t));
    }
    return inputs;
}

htims::analysis::AnalysisConfig analysis_config(const Inputs& inputs) {
    htims::analysis::AnalysisConfig cfg;
    cfg.encoder.mz_bins = inputs.streams.front().layout.mz_bins;
    return cfg;
}

}  // namespace perfbench
