/**
 * @file
 * Shared pieces of the end-to-end benchmark: options, the timed-phase
 * clock, percentiles, seeded derivations, the in-memory span tracer and
 * the result line.
 *
 * The tracer records spans from the benchmark's own code around each
 * call into a layer of the program. A span carries a name (the layer),
 * start and end, the index of its parent span and the id of the
 * operation (one capture or one query) it belongs to. Spans stay in
 * memory and are written out when the run ends.
 */

#ifndef E2EBENCH_COMMON_HH
#define E2EBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory the traced run writes its trace, table and snapshot to. */
    std::string outDir = ".bench_build/out";
    /** Scratch directory for on-disk state (the ground archive). */
    std::string workDir = ".bench_build/work";
};

/** Monotonic nanoseconds. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds between two nowNs() stamps. */
inline double
secBetween(uint64_t t0, uint64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

/** Milliseconds between two nowNs() stamps. */
inline double
msBetween(uint64_t t0, uint64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-6;
}

/** Process CPU time (user + system) in seconds. */
double processCpuSec();

/** Peak resident set size in MiB. */
double peakRssMb();

/**
 * Wall and CPU time of the timed phase. The phase may be split into
 * segments (resume()/pause()), so set-up and checks between segments
 * stay outside it.
 */
class PhaseClock
{
  public:
    void resume();
    void pause();
    double wallSec() const { return wall_; }
    double cpuSec() const { return cpu_; }

  private:
    bool running_ = false;
    uint64_t wall0_ = 0;
    double cpu0_ = 0.0;
    double wall_ = 0.0;
    double cpu_ = 0.0;
};

/** Nearest-rank percentile (p in (0, 1]) of an unsorted sample. */
double percentile(std::vector<double> values, double p);

/** Median of an unsorted sample (nearest rank). */
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/** SplitMix64 finalizer: derives independent seeds from one. */
uint64_t mix64(uint64_t x);

/** FNV-1a over raw bytes. */
uint64_t fnv1a(const void *data, size_t size, uint64_t h = 0xcbf29ce484222325ULL);

/** One recorded span. */
struct Span
{
    const char *name = "";
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    /** Index of the parent span in the same buffer, -1 for a root. */
    int32_t parent = -1;
    /** Operation the span belongs to. */
    uint64_t op = 0;
};

/**
 * Span buffer of one thread. Disabled buffers record nothing, so the
 * untimed path pays one branch per span.
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (or -1 when disabled). */
    int32_t begin(const char *name, uint64_t op, int32_t parent);

    /** Close a span opened by begin(). */
    void end(int32_t idx);

    /** Record a span with known bounds (e.g. a stage the program timed). */
    int32_t add(const char *name, uint64_t op, int32_t parent,
                uint64_t startNs, uint64_t endNs);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span over one call into a layer. */
class ScopedSpan
{
  public:
    ScopedSpan(TraceBuffer &buf, const char *name, uint64_t op,
               int32_t parent)
        : buf_(buf), idx_(buf.begin(name, op, parent))
    {
    }
    ~ScopedSpan() { buf_.end(idx_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int32_t index() const { return idx_; }

  private:
    TraceBuffer &buf_;
    int32_t idx_;
};

/** Outcome of checking and writing the traces of one run. */
struct TraceReport
{
    /** Operations (root spans) whose spans break the invariant. */
    int mismatchedOps = 0;
    /** Operations checked. */
    int checkedOps = 0;
    /** Spans recorded. */
    size_t spans = 0;
};

/** Slack of the trace invariant (the trace file keeps 1 ns steps). */
constexpr uint64_t kTraceTolNs = 1000;

/**
 * Check the self-time invariant per operation (a root span and its
 * descendants): every span lies within its parent, siblings do not
 * overlap, no self-time is negative, and the layers' self-times sum to
 * the operation's wall time, all within kTraceTolNs. Then write the
 * Chrome trace, the per-layer self-time table and the telemetry
 * registry snapshot under opts.outDir (file stem "<workload>-<seed>").
 */
TraceReport finishTrace(const Options &opts,
                        const std::vector<const TraceBuffer *> &buffers);

/** Name -> (value, unit) of the result line. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    std::string json() const;

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Counters every workload reports. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Metrics metrics;
    /** Reasons the run was judged incorrect (printed to stderr). */
    std::vector<std::string> problems;

    void problem(const std::string &what);
};

/** Print the result as the last line of standard output. */
void printResult(const RunResult &r);

int runPlanetEarthPlus(const Options &opts, RunResult &out);
int runSentinelKodan(const Options &opts, RunResult &out);
int runGroundIngestServe(const Options &opts, RunResult &out);

} // namespace e2ebench

#endif // E2EBENCH_COMMON_HH
