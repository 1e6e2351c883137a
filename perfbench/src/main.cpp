// main.cpp — perfbench entry point.
//
//   perfbench --workload <solo_burst|paced_fleet|record_replay> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//             [--label key=value ...]
//
// Prints a human-readable report, a labels line, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end figures; with --trace 1 the
// per-layer figures of a separate traced run. Exits non-zero, printing no
// result, on a usage error or an exception.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/simd.hpp"

namespace {

std::string first_line_with(const std::string& path, const std::string& key) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0) return line;
    return {};
}

std::string cpu_model() {
    std::string line = first_line_with("/proc/cpuinfo", "model name");
    const auto colon = line.find(':');
    return colon == std::string::npos ? "unknown" : line.substr(colon + 2);
}

/// The bracketed transparent-hugepage mode, e.g. "madvise".
std::string thp_mode() {
    std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string all;
    std::getline(in, all);
    const auto a = all.find('[');
    const auto b = all.find(']');
    return a == std::string::npos || b == std::string::npos ? "unknown"
                                                            : all.substr(a + 1, b - a - 1);
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>] [--label key=value ...]\n"
                 "workloads:");
    for (const auto& w : perfbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunOptions opt;
    std::vector<std::pair<std::string, std::string>> labels;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) return usage();
            const std::string val = argv[++i];
            if (arg == "--workload") {
                opt.workload = val;
                have_workload = true;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(val);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(val);
            } else if (arg == "--trace") {
                opt.trace = std::stoi(val) != 0;
            } else if (arg == "--workdir") {
                opt.workdir = val;
            } else if (arg == "--label") {
                const auto eq = val.find('=');
                if (eq == std::string::npos) return usage();
                labels.emplace_back(val.substr(0, eq), val.substr(eq + 1));
            } else {
                return usage();
            }
        }
    } catch (const std::exception&) {
        return usage();
    }
    if (!have_workload || !(opt.seconds > 0.0)) return usage();
    bool known = false;
    for (const auto& w : perfbench::workload_names()) known = known || w == opt.workload;
    if (!known) return usage();

    labels.emplace_back("workload", opt.workload);
    labels.emplace_back("seed", std::to_string(opt.seed));
    labels.emplace_back("trace", opt.trace ? "1" : "0");
    labels.emplace_back("seconds", std::to_string(opt.seconds));
    labels.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
    labels.emplace_back("cpu_model", cpu_model());
    labels.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
    labels.emplace_back("simd_tier", htims::simd_tier_name(htims::simd_tier()));
    labels.emplace_back("thp", thp_mode());
    std::string label_json = "{";
    for (std::size_t i = 0; i < labels.size(); ++i)
        label_json += (i ? ", " : "") + perfbench::json_string(labels[i].first) +
                      ": " + perfbench::json_string(labels[i].second);
    label_json += "}";
    std::printf("labels: %s\n", label_json.c_str());
    std::fflush(stdout);

    perfbench::Outcome out;
    try {
        out = perfbench::run_workload(opt);
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    const bool correct = out.failed == 0 && out.attempted > 0 && out.self_test_caught;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), out.metrics.json().c_str());
    return 0;
}
