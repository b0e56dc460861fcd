/**
 * @file
 * perfbench harness entry point.
 *
 * Usage: perfbench --workload <fig12-sweep|fig15-jsonl|serve-mixed>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  --work-dir <dir> [--span-path <file>]
 *
 * Prints human-readable lines (notes, checks, metrics) and, last, one
 * JSON object with everything run.py needs: the metrics of the pass
 * (end-to-end with --trace 0, per-layer with --trace 1), the output
 * checks, the output digests and the build's compiler and build type.
 * Exit code 0 when the pass ran, whether or not the checks passed; 2 on
 * a usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

using namespace perfbench;

/** The end-to-end metrics every untraced pass reports, in order. */
const char* const kEndToEnd[] = {"setup_s", "cpu_s", "events_per_cpu_s",
                                 "jobs_per_cpu_s", "peak_rss_mb"};

struct LayerMetric
{
    const char* name;
    const char* unit;
};

/**
 * The per-layer metrics every traced pass reports, in order. A layer a
 * workload does not exercise reports 0 for its rows (the srv rows on the
 * sim workloads, the obs merge on fig12-sweep, and so on).
 */
const LayerMetric kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"workload.generate_calls", "count"},
    {"profiling.bootstrap_s", "s"},
    {"core.engine_build_s", "s"},
    {"core.engine_reset_s", "s"},
    {"core.sim_loop_s", "s"},
    {"core.events", "count"},
    {"core.us_per_event", "us"},
    {"core.finalize_s", "s"},
    {"sim.rng_normal_ns", "ns"},
    {"sim.rng_child_ns", "ns"},
    {"sim.event_cycle_ns", "ns"},
    {"cloud.effective_quality_ns", "ns"},
    {"core.should_release_ns", "ns"},
    {"exp.trace_cache_hit_ratio", "ratio"},
    {"exp.engine_reuse_ratio", "ratio"},
    {"runtime.pool_idle_frac", "fraction"},
    {"obs.trace_records", "count"},
    {"obs.timeline_records", "count"},
    {"obs.sink_bytes", "bytes"},
    {"obs.merge_s", "s"},
    {"srv.http_read_ms", "ms"},
    {"srv.http_route_ms", "ms"},
    {"srv.http_handle_ms", "ms"},
    {"srv.http_write_ms", "ms"},
    {"srv.strand_wait_ms", "ms"},
    {"srv.engine_submit_ms", "ms"},
    {"srv.engine_advance_ms", "ms"},
    {"srv.report_render_ms", "ms"},
    {"srv.json_parse_us", "us"},
    {"srv.journal_append_us", "us"},
    {"srv.submit_rtt_p50_ms", "ms"},
    {"srv.submit_rtt_p99_ms", "ms"},
    {"srv.advance_rtt_p50_ms", "ms"},
    {"srv.advance_rtt_p99_ms", "ms"},
    {"srv.report_rtt_p50_ms", "ms"},
    {"srv.report_rtt_p99_ms", "ms"},
    {"trace.overhead_s", "s"},
};

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--span-path <file>]\n",
                 why);
    return 2;
}

bool
parseU64(const char* s, std::uint64_t* out)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!s[0] || *end != '\0')
        return false;
    *out = v;
    return true;
}

/** Reorders @p r's metrics to the canonical list, filling layers the
 *  workload did not exercise with 0. */
void
canonicalize(WorkloadResult& r, bool traced)
{
    std::vector<std::pair<std::string, Metric>> ordered;
    auto take = [&](const std::string& name, const char* unit) {
        for (auto& [n, m] : r.metrics) {
            if (n == name) {
                ordered.emplace_back(n, m);
                return;
            }
        }
        ordered.emplace_back(name, Metric{0.0, unit, 0});
    };
    if (traced) {
        for (const LayerMetric& m : kPerLayer)
            take(m.name, m.unit);
    } else {
        for (const char* name : kEndToEnd) {
            const bool present =
                std::any_of(r.metrics.begin(), r.metrics.end(),
                            [&](const auto& p) { return p.first == name; });
            if (!present)
                r.check(std::string("metric.") + name, false, "not measured");
            take(name, "");
            if (!(ordered.back().second.value > 0.0))
                r.check(std::string("metric.") + name, false,
                        "end-to-end metrics are never 0");
        }
    }
    r.metrics = std::move(ordered);
}

void
printResult(const RunOptions& opts, const WorkloadResult& r, bool correct)
{
    for (const std::string& note : r.notes)
        std::printf("%s\n", note.c_str());
    for (const auto& [layer, sec] : r.layerSelfSeconds)
        std::printf("span self time %-10s %12.6f s\n", layer.c_str(), sec);
    for (const Check& c : r.checks)
        std::printf("check %-40s %s  %s\n", c.name.c_str(),
                    c.ok ? "ok  " : "FAIL", c.detail.c_str());
    for (const auto& [name, m] : r.metrics) {
        if (m.samples > 0)
            std::printf("metric %-30s %16.6f %-8s (n=%llu)\n", name.c_str(),
                        m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(m.samples));
        else
            std::printf("metric %-30s %16.6f %s\n", name.c_str(), m.value,
                        m.unit.c_str());
    }

    hcloud::obs::JsonWriter w;
    w.beginObject();
    w.field("workload", opts.workload);
    w.field("seed", opts.seed);
    w.field("trace", opts.trace);
    w.field("seconds", opts.seconds);
    w.field("threads", static_cast<std::uint64_t>(opts.threads));
    w.field("compiler", PERFBENCH_COMPILER);
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.field("correct", correct);
    w.field("attempted", r.attempted);
    w.field("failed", r.failed);
    w.key("checks");
    w.beginArray();
    for (const Check& c : r.checks) {
        w.beginObject();
        w.field("name", c.name);
        w.field("ok", c.ok);
        w.field("detail", c.detail);
        w.endObject();
    }
    w.endArray();
    w.key("digests");
    w.beginObject();
    for (const auto& [name, hex] : r.digests)
        w.field(name, hex);
    w.endObject();
    w.key("self_s");
    w.beginObject();
    for (const auto& [layer, sec] : r.layerSelfSeconds)
        w.field(layer, sec);
    w.endObject();
    w.key("metrics");
    w.beginObject();
    for (const auto& [name, m] : r.metrics) {
        w.key(name);
        w.beginObject();
        w.field("value", m.value);
        w.field("unit", m.unit);
        if (m.samples > 0)
            w.field("samples", m.samples);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
{
    RunOptions opts;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char* value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            if (!parseU64(value, &opts.seed))
                return usage("--seed needs an unsigned integer");
        } else if (flag == "--seconds") {
            if (!parseU64(value, &n) || n == 0)
                return usage("--seconds needs a positive integer");
            opts.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                return usage("--trace needs 0 or 1");
            opts.trace = value[0] == '1';
            haveTrace = true;
        } else if (flag == "--work-dir") {
            opts.workDir = value;
        } else if (flag == "--span-path") {
            opts.spanPath = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (opts.workload.empty() || opts.workDir.empty() || !haveTrace)
        return usage("--workload, --trace and --work-dir are required");
    if (opts.trace && opts.spanPath.empty())
        return usage("--trace 1 needs --span-path");

    // The CPUs a pass runs on. The sim workloads use four workers, as
    // they are specified, but never more threads than the host has CPUs;
    // serve-mixed runs pinned to one CPU.
    const std::uint64_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    opts.threads = opts.workload == "serve-mixed"
        ? 1
        : static_cast<std::size_t>(std::min<std::uint64_t>(4, nproc));

    // The untraced passes must not pick up the daemon's span sink from
    // the environment; the traced pass names its own span files.
    ::unsetenv("HCLOUD_SPANS");

    WorkloadResult result;
    try {
        std::filesystem::create_directories(opts.workDir);
        if (opts.workload == "fig12-sweep")
            result = runFig12Sweep(opts);
        else if (opts.workload == "fig15-jsonl")
            result = runFig15Jsonl(opts);
        else if (opts.workload == "serve-mixed")
            result = runServeMixed(opts);
        else
            return usage(("unknown workload " + opts.workload).c_str());

        if (opts.trace)
            addMicroRows(result, opts.seed);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opts.workload.c_str(), e.what());
        return 1;
    }
    canonicalize(result, opts.trace);

    const bool correct =
        result.failed == 0 && result.attempted > 0 &&
        std::all_of(result.checks.begin(), result.checks.end(),
                    [](const Check& c) { return c.ok; });
    printResult(opts, result, correct);
    return 0;
}
