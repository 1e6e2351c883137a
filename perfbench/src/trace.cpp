// trace.cpp — span recorder, metric sink, statistics and process counters.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

double process_cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double tail_percentile(std::size_t n) {
    for (const double p : {99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0}) {
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
    }
    return 50.0;
}

namespace {

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (static_cast<unsigned char>(c) < 0x20) continue;  // no control chars
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string Metrics::json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, m] : values_) {
        if (!first) out += ", ";
        first = false;
        out += json_string(name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
    }
    return out + "}";
}

std::uint64_t Tracer::record(const std::string& name, std::uint64_t start_ns,
                             std::uint64_t end_ns, std::uint64_t parent,
                             std::uint64_t frame) {
    const std::uint64_t id = open_id();
    record_as(id, name, start_ns, end_ns, parent, frame);
    return id;
}

void Tracer::record_as(std::uint64_t id, const std::string& name,
                       std::uint64_t start_ns, std::uint64_t end_ns,
                       std::uint64_t parent, std::uint64_t frame) {
    std::lock_guard lock(mutex_);
    spans_.push_back(Span{name, id, parent, frame, start_ns,
                          std::max(start_ns, end_ns)});
}

std::size_t Tracer::size() const {
    std::lock_guard lock(mutex_);
    return spans_.size();
}

std::map<std::string, double> Tracer::total_seconds() const {
    std::lock_guard lock(mutex_);
    std::map<std::string, double> out;
    for (const Span& s : spans_)
        out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
    std::lock_guard lock(mutex_);
    // Children per parent, so each parent subtracts the union of its
    // direct children's intervals (clipped to the parent's own interval).
    std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& s : spans_)
        if (s.parent != 0) children[s.parent].push_back(&s);
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
        std::uint64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
            for (const Span* c : it->second) {
                const std::uint64_t a = std::max(c->start_ns, s.start_ns);
                const std::uint64_t b = std::min(c->end_ns, s.end_ns);
                if (b > a) iv.emplace_back(a, b);
            }
            std::sort(iv.begin(), iv.end());
            std::uint64_t cur_a = 0, cur_b = 0;
            for (const auto& [a, b] : iv) {
                if (a > cur_b) {
                    covered += cur_b - cur_a;
                    cur_a = a;
                    cur_b = b;
                } else {
                    cur_b = std::max(cur_b, b);
                }
            }
            covered += cur_b - cur_a;
        }
        out[s.name] +=
            static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
    std::lock_guard lock(mutex_);
    std::ofstream out(path);
    if (!out) return false;
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
    out << "[";
    bool first = true;
    for (const Span& s : spans_) {
        if (!first) out << ",\n";
        first = false;
        // Complete events ("ph":"X"), microseconds; a frame's spans share
        // one track (tid = frame id) so they line up in a trace viewer.
        out << "{\"name\":" << json_string(s.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.frame
            << ",\"ts\":" << json_number(static_cast<double>(s.start_ns - t0) * 1e-3)
            << ",\"dur\":" << json_number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"frame\":" << s.frame << "}}";
    }
    out << "]\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
