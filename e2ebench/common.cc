#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/telemetry.hh"

namespace e2ebench {

double
processCpuSec()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
PhaseClock::resume()
{
    if (running_)
        return;
    running_ = true;
    cpu0_ = processCpuSec();
    wall0_ = nowNs();
}

void
PhaseClock::pause()
{
    if (!running_)
        return;
    uint64_t t = nowNs();
    double c = processCpuSec();
    running_ = false;
    wall_ += secBetween(wall0_, t);
    cpu_ += c - cpu0_;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    rank = std::clamp<size_t>(rank, 1, values.size());
    return values[rank - 1];
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
fnv1a(const void *data, size_t size, uint64_t h)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

int32_t
TraceBuffer::begin(const char *name, uint64_t op, int32_t parent)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.op = op;
    s.parent = parent;
    s.startNs = nowNs();
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
}

void
TraceBuffer::end(int32_t idx)
{
    if (idx >= 0)
        spans_[static_cast<size_t>(idx)].endNs = nowNs();
}

int32_t
TraceBuffer::add(const char *name, uint64_t op, int32_t parent,
                 uint64_t startNs, uint64_t endNs)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.op = op;
    s.parent = parent;
    s.startNs = startNs;
    s.endNs = endNs;
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // anonymous namespace

TraceReport
finishTrace(const Options &opts,
            const std::vector<const TraceBuffer *> &buffers)
{
    TraceReport report;
    std::filesystem::create_directories(opts.outDir);
    std::string stem = opts.outDir + "/" + opts.workload + "-" +
                       std::to_string(opts.seed);

    struct LayerTotals
    {
        double selfMs = 0.0;
        uint64_t spans = 0;
    };
    std::map<std::string, LayerTotals> layers;
    uint64_t t0 = UINT64_MAX;
    for (const TraceBuffer *buf : buffers) {
        const auto &spans = buf->spans();
        // Self time of a span: its duration minus its children's.
        std::vector<int64_t> selfNs(spans.size());
        std::vector<std::vector<size_t>> children(spans.size());
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            t0 = std::min(t0, s.startNs);
            selfNs[i] += static_cast<int64_t>(s.endNs - s.startNs);
            if (s.parent >= 0) {
                selfNs[static_cast<size_t>(s.parent)] -=
                    static_cast<int64_t>(s.endNs - s.startNs);
                children[static_cast<size_t>(s.parent)].push_back(i);
            }
        }
        // Per root: nesting, sibling overlap, sign, and the sum.
        std::vector<int64_t> opSelfNs(spans.size(), 0);
        std::vector<uint8_t> opBad(spans.size(), 0);
        const int64_t tol = static_cast<int64_t>(kTraceTolNs);
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            size_t root = i;
            while (spans[root].parent >= 0)
                root = static_cast<size_t>(spans[root].parent);
            opSelfNs[root] += selfNs[i];
            if (selfNs[i] < -tol)
                opBad[root] = 1;
            if (s.parent >= 0) {
                const Span &p = spans[static_cast<size_t>(s.parent)];
                if (s.startNs + kTraceTolNs < p.startNs ||
                    s.endNs > p.endNs + kTraceTolNs)
                    opBad[root] = 1;
            }
            std::vector<size_t> kids = children[i];
            std::sort(kids.begin(), kids.end(), [&](size_t a, size_t b) {
                return spans[a].startNs < spans[b].startNs;
            });
            for (size_t k = 1; k < kids.size(); ++k)
                if (spans[kids[k]].startNs + kTraceTolNs <
                    spans[kids[k - 1]].endNs)
                    opBad[root] = 1;
            LayerTotals &lt = layers[s.name];
            lt.selfMs += static_cast<double>(selfNs[i]) * 1e-6;
            ++lt.spans;
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].parent >= 0)
                continue;
            ++report.checkedOps;
            int64_t wall = static_cast<int64_t>(spans[i].endNs -
                                                spans[i].startNs);
            if (opBad[i] || std::llabs(opSelfNs[i] - wall) > tol)
                ++report.mismatchedOps;
        }
        report.spans += spans.size();
    }

    // Chrome trace: one complete event per span.
    std::ofstream trace(stem + ".trace.json");
    trace << "{\"traceEvents\":[";
    bool first = true;
    for (size_t b = 0; b < buffers.size(); ++b) {
        const auto &spans = buffers[b]->spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char line[512];
            std::snprintf(line, sizeof line,
                          "%s\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                          "\"args\":{\"op\":%llu,\"id\":%zu,\"parent\":%d}}",
                          first ? "" : ",", s.name,
                          static_cast<double>(s.startNs - t0) * 1e-3,
                          static_cast<double>(s.endNs - s.startNs) * 1e-3,
                          b, static_cast<unsigned long long>(s.op), i,
                          s.parent);
            trace << line;
            first = false;
        }
    }
    trace << "\n]}\n";

    std::ofstream table(stem + ".layers.txt");
    table << "# layer self time, " << opts.workload << " seed "
          << opts.seed << "; operations checked " << report.checkedOps
          << ", mismatched " << report.mismatchedOps << "\n";
    table << "# layer                          spans      self_ms\n";
    for (const auto &[name, lt] : layers) {
        char line[256];
        std::snprintf(line, sizeof line, "%-30s %8llu %12.3f\n",
                      name.c_str(),
                      static_cast<unsigned long long>(lt.spans), lt.selfMs);
        table << line;
    }

    std::ofstream snap(stem + ".telemetry.json");
    snap << earthplus::telemetry::snapshotJson() << "\n";
    return report;
}

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    values_[name] = {value, unit};
}

std::string
Metrics::json() const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, vu] : values_) {
        char num[64];
        double v = std::isfinite(vu.first) ? vu.first : 0.0;
        std::snprintf(num, sizeof num, "%.17g", v);
        os << (first ? "" : ", ") << "\"" << jsonEscape(name)
           << "\": {\"value\": " << num << ", \"unit\": \""
           << jsonEscape(vu.second) << "\"}";
        first = false;
    }
    os << "}";
    return os.str();
}

void
RunResult::problem(const std::string &what)
{
    correct = false;
    if (problems.size() < 20)
        problems.push_back(what);
}

void
printResult(const RunResult &r)
{
    for (const std::string &p : r.problems)
        std::cerr << "check failed: " << p << "\n";
    std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed
              << ", \"metrics\": " << r.metrics.json() << "}" << std::endl;
}

} // namespace e2ebench
