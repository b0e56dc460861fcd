/**
 * @file
 * Sweep-scheduler throughput benchmark: exp::runSweep (engine reuse +
 * shared trace cache + streaming aggregation) against the pre-existing
 * multi-seed path (Runner::runBatch with one scenario-override spec per
 * cell x seed, which regenerates every trace and builds a fresh engine
 * per spec).
 *
 * Both sides execute the identical fig12 grid x seed list and are
 * measured best-of-N (wall clock -> aggregate simulator events/sec).
 * The machine-readable artifact BENCH_sweep.json (CI uploads and gates
 * it) records both sides' throughput, the sweep's cache/reset telemetry,
 * the per-run setup cost before/after (the reset-reuse win), and a
 * thread-count determinism check (sweepCellsJson at 1 vs 2 threads).
 *
 * Usage: bench_sweep [--seeds <n>] [--reps <n>] [--threads <n>]
 *                    [--load <scale>] [--duration <hours>]
 *                    [--seed <base>] [--out <path>]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "obs/json.hpp"
#include "obs/phase_profiler.hpp"

namespace {

/** One measured execution of the baseline runBatch path. */
struct BaselineRun
{
    double wallSec = 0.0;
    double setupSecTotal = 0.0;
    double traceGenSecTotal = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
};

double
secondsSince(hcloud::obs::PhaseProfiler::Clock::time_point start)
{
    return std::chrono::duration<double>(
               hcloud::obs::PhaseProfiler::Clock::now() - start)
        .count();
}

/** The runBatch spec list equivalent to a sweep's cells x seeds. */
std::vector<hcloud::exp::RunSpec>
baselineSpecs(const std::vector<hcloud::exp::SweepCell>& cells,
              const hcloud::exp::SweepOptions& options)
{
    const std::vector<std::uint64_t> seeds =
        hcloud::exp::deriveSeedList(options.baseSeed, options.seeds);
    std::vector<hcloud::exp::RunSpec> specs;
    specs.reserve(cells.size() * seeds.size());
    for (const hcloud::exp::SweepCell& cell : cells) {
        for (std::uint64_t seed : seeds) {
            hcloud::exp::RunSpec spec;
            spec.scenario = cell.scenario;
            spec.strategy = cell.strategy;
            spec.config = cell.config;
            // The pre-sweep way to vary the seed: a private per-spec
            // scenario override (the shared trace is pinned to the
            // runner's own seed), regenerated inside every task.
            hcloud::workload::ScenarioConfig scenario =
                cell.scenarioOverride.value_or(
                    hcloud::workload::ScenarioConfig{});
            if (!cell.scenarioOverride) {
                scenario.kind = cell.scenario;
                if (options.duration)
                    scenario.duration = *options.duration;
            }
            scenario.loadScale = options.loadScale;
            scenario.seed = seed;
            spec.scenarioOverride = scenario;
            spec.seedOverride = seed;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

BaselineRun
runBaseline(const std::vector<hcloud::exp::SweepCell>& cells,
            const hcloud::exp::SweepOptions& options)
{
    hcloud::exp::ExperimentOptions opt;
    opt.loadScale = options.loadScale;
    opt.seed = options.baseSeed;
    opt.threads = options.threads;
    hcloud::exp::Runner runner(opt);
    const std::vector<hcloud::exp::RunSpec> specs =
        baselineSpecs(cells, options);
    const auto start = hcloud::obs::PhaseProfiler::Clock::now();
    const std::vector<hcloud::core::RunResult> results =
        runner.runBatch(specs);
    BaselineRun run;
    run.wallSec = secondsSince(start);
    for (const hcloud::core::RunResult& r : results) {
        run.events += r.telemetry.eventsProcessed;
        run.setupSecTotal += r.telemetry.setupSec;
        run.traceGenSecTotal += r.telemetry.traceGenSec;
    }
    run.eventsPerSec =
        run.wallSec > 0.0 ? double(run.events) / run.wallSec : 0.0;
    return run;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace hcloud;

    exp::SweepOptions options;
    options.title = "bench_sweep_fig12";
    options.seeds = 3;
    // Sweep-scale defaults: many short runs, the regime where per-run
    // setup (classifier bootstrap, engine construction, per-spec trace
    // regeneration) dominates and the scheduler's reuse machinery pays.
    options.loadScale = 0.25;
    options.duration = sim::hours(0.1);
    std::size_t reps = 3;
    std::string outPath = "BENCH_sweep.json";
    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (std::strcmp(argv[i], "--seeds") == 0)
            options.seeds = static_cast<std::size_t>(std::atol(next()));
        else if (std::strcmp(argv[i], "--reps") == 0)
            reps = static_cast<std::size_t>(std::atol(next()));
        else if (std::strcmp(argv[i], "--threads") == 0)
            options.threads =
                static_cast<std::size_t>(std::atol(next()));
        else if (std::strcmp(argv[i], "--load") == 0)
            options.loadScale = std::atof(next());
        else if (std::strcmp(argv[i], "--duration") == 0)
            options.duration = sim::hours(std::atof(next()));
        else if (std::strcmp(argv[i], "--seed") == 0)
            options.baseSeed =
                static_cast<std::uint64_t>(std::atoll(next()));
        else if (std::strcmp(argv[i], "--out") == 0)
            outPath = next();
        else {
            std::fprintf(stderr, "bench_sweep: unknown option %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (options.seeds == 0 || reps == 0) {
        std::fprintf(stderr,
                     "bench_sweep: --seeds and --reps must be >= 1\n");
        return 2;
    }

    const std::vector<exp::SweepCell> grid =
        exp::fig12SweepGrid(core::EngineConfig{});
    std::printf("bench_sweep: fig12 grid, %zu cells x %zu seeds, "
                "best of %zu\n",
                grid.size(), options.seeds, reps);

    BaselineRun baseline;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const BaselineRun run = runBaseline(grid, options);
        if (rep == 0 || run.eventsPerSec > baseline.eventsPerSec)
            baseline = run;
        std::printf("  baseline rep %zu: %.2fs, %.2f Mev/s\n", rep + 1,
                    run.wallSec, run.eventsPerSec / 1e6);
    }

    exp::SweepResult sweep;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        exp::SweepResult run = exp::runSweep(grid, options);
        if (rep == 0 ||
            run.telemetry.eventsPerSec > sweep.telemetry.eventsPerSec)
            sweep = std::move(run);
        std::printf("  sweep rep %zu: %.2fs, %.2f Mev/s\n", rep + 1,
                    sweep.telemetry.wallSec,
                    sweep.telemetry.eventsPerSec / 1e6);
    }

    // Thread-count determinism: the canonical cell JSON must match
    // between forced-serial and pooled execution (one seed keeps this
    // check cheap; the full-matrix assertion lives in test_exp_sweep).
    exp::SweepOptions detOpt = options;
    detOpt.seeds = std::min<std::size_t>(options.seeds, 2);
    detOpt.threads = 1;
    const std::string serialCells =
        exp::sweepCellsJson(exp::runSweep(grid, detOpt));
    detOpt.threads = 2;
    const std::string pooledCells =
        exp::sweepCellsJson(exp::runSweep(grid, detOpt));
    const bool deterministic = serialCells == pooledCells;

    const double runs = double(sweep.telemetry.runs);
    const double sweepSetupPerRun =
        runs > 0.0 ? sweep.telemetry.setupSecTotal / runs : 0.0;
    const double baselineSetupPerRun =
        runs > 0.0 ? baseline.setupSecTotal / runs : 0.0;
    const double speedup = baseline.eventsPerSec > 0.0
        ? sweep.telemetry.eventsPerSec / baseline.eventsPerSec
        : 0.0;

    obs::JsonWriter w;
    w.beginObject();
    w.field("schemaVersion", 1);
    w.field("benchmark",
            "fig12 grid x seeds: exp::runSweep (engine reuse + trace "
            "cache) vs Runner::runBatch with per-spec overrides");
    w.field("cells", static_cast<std::uint64_t>(grid.size()));
    w.field("seeds", static_cast<std::uint64_t>(options.seeds));
    w.field("reps", static_cast<std::uint64_t>(reps));
    w.field("threads",
            static_cast<std::uint64_t>(sweep.telemetry.threads));
    w.field("load_scale", options.loadScale);
    if (options.duration)
        w.field("duration_hours", *options.duration / 3600.0);
    w.key("baseline");
    w.beginObject();
    w.field("wall_sec", baseline.wallSec);
    w.field("events_processed", baseline.events);
    w.field("events_per_sec", baseline.eventsPerSec);
    w.field("setup_sec_total", baseline.setupSecTotal);
    w.field("setup_sec_per_run", baselineSetupPerRun);
    w.field("trace_gen_sec_total", baseline.traceGenSecTotal);
    w.endObject();
    w.key("sweep");
    w.beginObject();
    w.field("wall_sec", sweep.telemetry.wallSec);
    w.field("events_processed", sweep.telemetry.eventsProcessed);
    w.field("events_per_sec", sweep.telemetry.eventsPerSec);
    w.field("setup_sec_total", sweep.telemetry.setupSecTotal);
    w.field("setup_sec_per_run", sweepSetupPerRun);
    w.field("trace_gen_sec_total", sweep.telemetry.traceGenSecTotal);
    w.field("trace_cache_hits", sweep.telemetry.traceCacheHits);
    w.field("trace_cache_misses", sweep.telemetry.traceCacheMisses);
    w.field("engine_resets", sweep.telemetry.engineResets);
    w.field("engines_created", sweep.telemetry.enginesCreated);
    w.field("max_buffered_runs",
            static_cast<std::uint64_t>(sweep.telemetry.maxBufferedRuns));
    w.endObject();
    w.field("events_per_sec_speedup", speedup);
    w.field("setup_sec_per_run_ratio",
            sweepSetupPerRun > 0.0
                ? baselineSetupPerRun / sweepSetupPerRun
                : 0.0);
    w.field("deterministic_across_threads", deterministic);
    w.endObject();

    std::ofstream out(outPath);
    out << w.take() << "\n";
    if (!out) {
        std::fprintf(stderr, "bench_sweep: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    std::printf("bench_sweep: %.2fx events/sec (%.2f vs %.2f Mev/s), "
                "setup %.1fx cheaper per run, deterministic=%s\n",
                speedup, sweep.telemetry.eventsPerSec / 1e6,
                baseline.eventsPerSec / 1e6,
                sweepSetupPerRun > 0.0
                    ? baselineSetupPerRun / sweepSetupPerRun
                    : 0.0,
                deterministic ? "true" : "false");
    std::printf("bench_sweep: wrote %s\n", outPath.c_str());
    return deterministic ? 0 : 1;
}
