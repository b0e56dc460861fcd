/**
 * @file
 * Shared plumbing of the perfbench harness: run options, the result a
 * workload hands back to main(), timing and statistics helpers.
 *
 * Every workload fills a WorkloadResult. main() turns it into the one
 * JSON line run.py reads: end-to-end metrics from the untraced pass
 * (--trace 0) or per-layer metrics from the traced pass (--trace 1),
 * plus the output checks and digests that prove the simulated
 * statistics did not move.
 */

#ifndef HCLOUD_PERFBENCH_COMMON_HPP
#define HCLOUD_PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * CPU seconds all threads of this process have run so far, user and
 * system, except a live HostSpeed sampler's. Time the hypervisor gave
 * to other guests (steal) and time other processes ran are not in it,
 * so on a shared host it moves far less than wall time does. The gated
 * metrics are built on it.
 */
double processCpuSeconds();

/** processCpuSeconds() spent since @p start (a processCpuSeconds()). */
inline double
cpuSince(double start)
{
    return processCpuSeconds() - start;
}

/** Command-line options of one harness invocation. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measurement budget; a pass repeats its unit of work until spent. */
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for sink parts, merged JSONL and journals. */
    std::string workDir;
    /** Where the traced pass writes its span JSONL. */
    std::string spanPath;
    /** CPUs the pass runs on: sim worker threads (never more than
     *  nproc), 1 for serve-mixed. */
    std::size_t threads = 1;
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (latencies, repetitions); 0 = n/a. */
    std::uint64_t samples = 0;
};

/** One named output check. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** Everything a workload pass hands back to main(). */
struct WorkloadResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Check> checks;
    /** Canonical digests of the simulated outputs (hex). */
    std::map<std::string, std::string> digests;
    /** Metrics in report order. */
    std::vector<std::pair<std::string, Metric>> metrics;
    /** Extra human-readable lines printed before the result. */
    std::vector<std::string> notes;
    /** Traced pass: span self seconds per layer (see addSelfSeconds). */
    std::map<std::string, double> layerSelfSeconds;

    void set(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples = 0);
    void check(const std::string& name, bool ok,
               const std::string& detail = {});
};

/**
 * Binds @p tracer to this thread as the root of a fresh trace, one per
 * unit of work, so a span's parent always ran on the same thread.
 * Inert when @p tracer is null.
 */
class TraceRoot
{
  public:
    explicit TraceRoot(hcloud::obs::SpanTracer* tracer)
        : bind_(tracer, hcloud::obs::SpanContext{
                            tracer ? tracer->newTraceId() : 0, 0})
    {
    }

  private:
    hcloud::obs::SpanBinding bind_;
};

/** One span line of an obs::SpanTracer JSONL file. */
struct SpanLine
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    double seconds = 0.0;
};

/** The span lines of @p path; event lines are skipped. */
std::vector<SpanLine> readSpans(const std::string& path);

/** Total seconds (and count) of the spans called @p name. */
double spanSeconds(const std::vector<SpanLine>& spans,
                   const std::string& name, std::uint64_t* count = nullptr);

/**
 * Adds each span's self time (its duration minus its direct children's)
 * to its layer in @p perLayer. The layer is the name's prefix: the
 * harness names its spans "<module>.<call>"; the daemon's own spans map
 * http, engine and journal to srv and strand to runtime. Accept-queue
 * waits (http.accept_wait) are left out.
 */
void addSelfSeconds(const std::vector<SpanLine>& spans,
                    std::map<std::string, double>& perLayer);

/** The daemon's span file next to the harness's @p spanPath. */
std::string daemonSpanPath(const std::string& spanPath);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile of @p v, q in [0, 1] (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Process high-water resident set (VmHWM) in MiB. */
double peakRssMb();

/** Return the allocator's free memory to the system (glibc malloc_trim),
 *  then reset VmHWM to the current resident set (Linux clear_refs 5), so
 *  the next peakRssMb() covers only what ran in between, not what earlier
 *  repetitions left cached in the heap. */
void resetPeakRss();

/** 64-bit FNV-1a, the harness's digest of canonical output bytes. */
class Fnv
{
  public:
    void bytes(const void* data, std::size_t n);
    void str(const std::string& s);
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** Quantile count rule: the highest percentile with >= 10 samples
 *  beyond it needs n >= 10 / (1 - q). */
inline bool
enoughForQuantile(std::size_t n, double q)
{
    return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

/**
 * "<workload>: wall clock ...": the medians of wall seconds per unit of
 * work and of @p events and @p jobs per wall second, for the notes. They
 * are what a user waits for, but too noisy on a shared host to gate.
 */
std::string wallNote(const std::string& workload,
                     const std::vector<double>& wall, double events,
                     double jobs);

/** "1.234 2.345 s": per-repetition seconds for the notes. */
std::string listSeconds(const std::vector<double>& v);

/** Number of lines in @p path (-1 when it cannot be read). */
long long countLines(const std::string& path);

/** Size of @p path in bytes (0 when missing). */
std::uint64_t fileBytes(const std::string& path);

/**
 * Per-call cost rows of the hot calls the sim workloads make, through
 * the modules' public functions with inputs shaped like the workloads:
 * sim.rng_normal_ns, sim.rng_child_ns, sim.event_cycle_ns,
 * cloud.effective_quality_ns and core.should_release_ns. Each is the
 * median over several batches.
 */
void addMicroRows(WorkloadResult& result, std::uint64_t seed);

/** Median wall seconds of one Quasar classifier bootstrap (the work a
 *  fresh EngineRun pays and EngineRun::reset() keeps). */
double bootstrapSeconds();

/**
 * The host speed sampler (host_speed.cpp). While alive, a thread of its
 * own runs a fixed probe computation that shares no code with the
 * program, about every kProbePeriodMs, and records the probe's thread
 * CPU seconds. Its samples say how fast this host runs a CPU second at
 * each moment of a pass.
 *
 * processCpuSeconds() leaves the sampler thread's CPU time out.
 */
class HostSpeed
{
  public:
    HostSpeed();
    ~HostSpeed();
    HostSpeed(const HostSpeed&) = delete;
    HostSpeed& operator=(const HostSpeed&) = delete;

    /**
     * Factor that turns CPU seconds spent in [@p from, @p to] into
     * reference-host CPU seconds: kProbeReferenceSeconds over the median
     * probe of the window (of every probe so far when none ended in it).
     * Every gated time and rate is scaled by its repetition's factor, so
     * a host that runs every instruction 20% slower for a while moves
     * them far less than 20%.
     */
    double factor(Clock::time_point from, Clock::time_point to) const;

    /** CPU seconds the sampler thread has run so far. */
    double cpuSeconds() const;

    /** Probe runs recorded so far. */
    std::size_t samples() const;

  private:
    struct State;
    std::unique_ptr<State> state_;
};

/** Sleep between two probe runs of HostSpeed. */
constexpr int kProbePeriodMs = 40;

/** What one probe run takes on the reference host, the 4-vCPU Xeon
 *  (family 6, model 207) VM the bounds were set on. */
constexpr double kProbeReferenceSeconds = 0.0015;

/** "host speed: ...": the factors' median and range, for the notes. */
std::string hostFactorNote(const std::vector<double>& factors,
                           const HostSpeed& host);

/**
 * Calls @p rep at least once, then again while one more call, as long
 * as the median call so far, still ends within @p budget seconds of the
 * first. A pass therefore measures for about its budget, never much more.
 * Returns @p host's factor over each call, one per call.
 */
template <typename Rep>
std::vector<double>
repeatWithin(const HostSpeed& host, double budget, Rep rep)
{
    const Clock::time_point start = Clock::now();
    std::vector<double> took, factors;
    do {
        const Clock::time_point t0 = Clock::now();
        rep();
        const Clock::time_point t1 = Clock::now();
        took.push_back(std::chrono::duration<double>(t1 - t0).count());
        factors.push_back(host.factor(t0, t1));
    } while (secondsSince(start) + median(took) <= budget);
    return factors;
}

/** Every workload: run one pass, untraced or traced per @p opts. */
WorkloadResult runFig12Sweep(const RunOptions& opts);
WorkloadResult runFig15Jsonl(const RunOptions& opts);
WorkloadResult runServeMixed(const RunOptions& opts);

} // namespace perfbench

#endif // HCLOUD_PERFBENCH_COMMON_HPP
