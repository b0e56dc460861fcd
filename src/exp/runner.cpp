#include "exp/runner.hpp"

#include <chrono>

#include "obs/phase_profiler.hpp"
#include "obs/process_metrics.hpp"

namespace hcloud::exp {

namespace {

/** Seconds elapsed since @p start on the profiler clock. */
double
secondsSince(obs::PhaseProfiler::Clock::time_point start)
{
    return std::chrono::duration<double>(obs::PhaseProfiler::Clock::now() -
                                         start)
        .count();
}

/**
 * Fold one finished run into the process-wide metrics registry
 * (obs::ProcessMetrics::instance(), `hcloud_run_*` namespace): the
 * run-completion counter, per-phase wall-clock from the phase profiler,
 * and the run's own registry snapshot as labeled families. Safe from
 * concurrent tasks (the process registry is thread-safe) and invisible to
 * the simulation, so determinism contracts hold.
 */
void
publishRunCompleted(const core::RunResult& result)
{
    obs::ProcessMetrics& pm = obs::ProcessMetrics::instance();
    pm.counter("hcloud_run_completed_total",
               "Engine runs completed by experiment runners")
        .inc();
    pm.counter("hcloud_run_sim_events_total",
               "Simulator events processed across all runs")
        .inc(static_cast<double>(result.telemetry.eventsProcessed));
    pm.gauge("hcloud_run_last_events_per_sec",
             "Sim-loop throughput of the most recently finished run")
        .set(result.telemetry.eventsPerSec);

    // Per-phase wall-clock from the phase profiler, as one labeled
    // counter family (seconds are floats; the counter CAS-adds them).
    static constexpr const char* kPhaseHelp =
        "Wall-clock seconds per run phase, accumulated across runs";
    pm.counter("hcloud_phase_seconds_total", kPhaseHelp,
               {{"phase", "setup"}})
        .inc(result.telemetry.setupSec);
    pm.counter("hcloud_phase_seconds_total", kPhaseHelp,
               {{"phase", "sim_loop"}})
        .inc(result.telemetry.simLoopSec);
    pm.counter("hcloud_phase_seconds_total", kPhaseHelp,
               {{"phase", "finalize"}})
        .inc(result.telemetry.finalizeSec);

    // The run's registry snapshot folds into three labeled families —
    // names become label values, so cardinality stays one series per
    // per-run metric instead of one family each.
    for (const obs::MetricSample& m : result.metricsSnapshot) {
        switch (m.kind) {
          case obs::MetricSample::Kind::Counter:
            pm.counter("hcloud_run_counter_total",
                       "Per-run registry counters summed across runs",
                       {{"metric", m.name}})
                .inc(m.value);
            break;
          case obs::MetricSample::Kind::Gauge:
            pm.gauge("hcloud_run_gauge",
                     "Per-run registry gauges (last finished run wins)",
                     {{"metric", m.name}})
                .set(m.value);
            break;
          case obs::MetricSample::Kind::Histogram:
            pm.counter(
                  "hcloud_run_histogram_observations_total",
                  "Per-run registry histogram observations across runs",
                  {{"metric", m.name}})
                .inc(static_cast<double>(m.count));
            pm.gauge("hcloud_run_histogram_mean",
                     "Per-run registry histogram mean of the last "
                     "finished run",
                     {{"metric", m.name}})
                .set(m.value);
            break;
        }
    }
}

/** Count one memoized matrix cell landing in the cache
 *  (`hcloud_cell_completed_total`). */
void
publishCellCompleted()
{
    obs::ProcessMetrics::instance()
        .counter("hcloud_cell_completed_total",
                 "Memoized run-matrix cells filled")
        .inc();
}

/** Sink tag of a memoized matrix cell ("static-HM[-unprofiled]"). */
std::string
cellSinkTag(workload::ScenarioKind scenario, core::StrategyKind strategy,
            bool profiling)
{
    std::string tag = workload::toString(scenario);
    tag += '-';
    tag += core::toString(strategy);
    if (!profiling)
        tag += "-unprofiled";
    return tag;
}

/** Derive cfg.trace.sinkPath and cfg.timeline.sinkPath from their
 *  sinkStems + @p tag (no-op for each empty stem). */
void
applySinkTag(core::EngineConfig& cfg, const std::string& tag)
{
    // Trace and timeline stems must differ (parseBenchCli refuses equal
    // output paths), so the per-run part files never collide.
    if (!cfg.trace.sinkStem.empty())
        cfg.trace.sinkPath = cfg.trace.sinkStem + "." + tag + ".part";
    if (!cfg.timeline.sinkStem.empty())
        cfg.timeline.sinkPath = cfg.timeline.sinkStem + "." + tag + ".part";
}

} // namespace

Runner::Runner(ExperimentOptions options, core::EngineConfig baseConfig)
    : options_(options),
      baseConfig_(baseConfig),
      threads_(options.threads > 0 ? options.threads
                                   : runtime::defaultThreadCount()),
      pool_(threads_)
{
    baseConfig_.seed = options.seed;
}

workload::ScenarioConfig
Runner::scenarioConfig(workload::ScenarioKind scenario) const
{
    workload::ScenarioConfig cfg;
    cfg.kind = scenario;
    cfg.seed = options_.seed;
    cfg.loadScale = options_.loadScale;
    return cfg;
}

Runner::TimedTrace
Runner::timedGenerate(const workload::ScenarioConfig& config)
{
    const auto start = obs::PhaseProfiler::Clock::now();
    workload::ArrivalTrace trace = workload::generateScenario(config);
    const double genSec = secondsSince(start);
    return {std::move(trace), genSec};
}

const Runner::TimedTrace&
Runner::sharedTrace(workload::ScenarioKind scenario)
{
    // Generation happens under the lock: it is cheap relative to a run,
    // and map references stay stable across later inserts.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = traces_.find(scenario);
    if (it == traces_.end())
        it = traces_.emplace(scenario, timedGenerate(scenarioConfig(scenario)))
                 .first;
    return it->second;
}

const workload::ArrivalTrace&
Runner::trace(workload::ScenarioKind scenario)
{
    return sharedTrace(scenario).trace;
}

core::RunResult
Runner::executeSpec(const RunSpec& spec, const std::string& sinkTag)
{
    core::EngineConfig cfg = spec.config;
    cfg.seed = spec.seedOverride.value_or(options_.seed);
    applySinkTag(cfg, sinkTag);
    core::Engine engine(cfg);
    std::optional<TimedTrace> local;
    if (spec.scenarioOverride)
        local = timedGenerate(*spec.scenarioOverride);
    const TimedTrace& input = local ? *local : sharedTrace(spec.scenario);
    core::RunResult result = engine.run(
        input.trace, spec.strategy,
        spec.label.empty() ? std::string(workload::toString(spec.scenario))
                           : spec.label);
    result.telemetry.traceGenSec = input.genSec;
    result.telemetry.threads = threads_;
    // Published from the running thread, so a live scrape watches runs
    // complete one by one.
    publishRunCompleted(result);
    return result;
}

void
Runner::recordAdhoc(const core::RunResult& result)
{
    if (!recordAdhoc_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    adhoc_.push_back(result);
}

const core::RunResult&
Runner::run(workload::ScenarioKind scenario, core::StrategyKind strategy,
            bool profiling)
{
    const CellKey key{scenario, strategy, profiling};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = results_.find(key);
        if (it != results_.end())
            return it->second;
    }
    // Computed outside the lock; try_emplace keeps the first of racing
    // callers' results.
    RunSpec spec;
    spec.scenario = scenario;
    spec.strategy = strategy;
    spec.config = baseConfig_;
    spec.config.useProfiling = profiling;
    core::RunResult result = executeSpec(
        spec, cellSinkTag(scenario, strategy, profiling) + "." +
            std::to_string(sinkSeq_++));
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = results_.try_emplace(key, std::move(result));
    if (inserted)
        publishCellCompleted();
    return it->second;
}

core::RunResult
Runner::runWith(workload::ScenarioKind scenario,
                core::StrategyKind strategy,
                const core::EngineConfig& config,
                const std::string& label)
{
    // Root-seed contract: executeSpec() replaces the caller's seed, so a
    // call site that forgets `cfg.seed = options().seed` cannot diverge
    // from the memoized run() path.
    RunSpec spec;
    spec.scenario = scenario;
    spec.strategy = strategy;
    spec.config = config;
    spec.label = label;
    core::RunResult result =
        executeSpec(spec, "a" + std::to_string(sinkSeq_++));
    recordAdhoc(result);
    return result;
}

std::vector<core::RunResult>
Runner::runBatch(const std::vector<RunSpec>& specs)
{
    const std::string batch = "b" + std::to_string(sinkSeq_++) + "x";
    std::vector<core::RunResult> results =
        runtime::parallelMap(pool_, specs.size(), [&](std::size_t i) {
            return executeSpec(specs[i], batch + std::to_string(i));
        });
    for (const core::RunResult& result : results)
        recordAdhoc(result);
    return results;
}

void
Runner::prewarm(bool includeUnprofiled)
{
    std::vector<CellKey> cells;
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        for (core::StrategyKind strategy : core::kAllStrategies) {
            cells.emplace_back(scenario, strategy, true);
            if (includeUnprofiled)
                cells.emplace_back(scenario, strategy, false);
        }
    }
    runtime::parallelFor(
        pool_, 0, cells.size(),
        [&](std::size_t i) {
            const auto& [scenario, strategy, profiling] = cells[i];
            run(scenario, strategy, profiling);
        },
        /*chunk=*/1);
}

} // namespace hcloud::exp
