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

} // namespace

void
Runner::publishRunCompleted(const core::RunResult& result)
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

void
Runner::publishCellCompleted()
{
    obs::ProcessMetrics::instance()
        .counter("hcloud_cell_completed_total",
                 "Memoized run-matrix cells filled")
        .inc();
}

Runner::Runner(ExperimentOptions options, core::EngineConfig baseConfig)
    : options_(options), baseConfig_(baseConfig)
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

double
Runner::traceGenSeconds(workload::ScenarioKind scenario) const
{
    auto it = traceGenSec_.find(scenario);
    return it == traceGenSec_.end() ? 0.0 : it->second;
}

const workload::ArrivalTrace&
Runner::trace(workload::ScenarioKind scenario)
{
    auto it = traces_.find(scenario);
    if (it == traces_.end()) {
        const auto start = obs::PhaseProfiler::Clock::now();
        workload::ArrivalTrace generated =
            workload::generateScenario(scenarioConfig(scenario));
        traceGenSec_[scenario] = secondsSince(start);
        it = traces_.emplace(scenario, std::move(generated)).first;
    }
    return it->second;
}

std::string
Runner::cellSinkTag(workload::ScenarioKind scenario,
                    core::StrategyKind strategy, bool profiling)
{
    std::string tag = workload::toString(scenario);
    tag += '-';
    tag += core::toString(strategy);
    if (!profiling)
        tag += "-unprofiled";
    return tag;
}

void
Runner::applySinkTag(core::EngineConfig& cfg, const std::string& tag)
{
    // Trace and timeline stems must differ (parseBenchCli refuses equal
    // output paths), so the per-run part files never collide.
    if (!cfg.trace.sinkStem.empty())
        cfg.trace.sinkPath = cfg.trace.sinkStem + "." + tag + ".part";
    if (!cfg.timeline.sinkStem.empty())
        cfg.timeline.sinkPath = cfg.timeline.sinkStem + "." + tag + ".part";
}

const core::RunResult&
Runner::run(workload::ScenarioKind scenario, core::StrategyKind strategy,
            bool profiling)
{
    const auto key = std::make_tuple(scenario, strategy, profiling);
    auto it = results_.find(key);
    if (it == results_.end()) {
        core::EngineConfig cfg = baseConfig_;
        cfg.useProfiling = profiling;
        applySinkTag(cfg, cellSinkTag(scenario, strategy, profiling));
        core::Engine engine(cfg);
        core::RunResult result = engine.run(trace(scenario), strategy,
                                            workload::toString(scenario));
        result.telemetry.traceGenSec = traceGenSeconds(scenario);
        result.telemetry.threads = 1;
        publishRunCompleted(result);
        publishCellCompleted();
        it = results_.emplace(key, std::move(result)).first;
    }
    return it->second;
}

core::RunResult
Runner::runWith(workload::ScenarioKind scenario,
                core::StrategyKind strategy,
                const core::EngineConfig& config,
                const std::string& label)
{
    // Root-seed contract: runWith() used to run with whatever seed the
    // caller left in the config, silently diverging from the memoized
    // run() path whenever a call site forgot `cfg.seed = options().seed`.
    core::EngineConfig cfg = config;
    cfg.seed = options_.seed;
    applySinkTag(cfg, "a" + std::to_string(nextSinkSeq()));
    core::Engine engine(cfg);
    core::RunResult result = engine.run(
        trace(scenario), strategy,
        label.empty() ? std::string(workload::toString(scenario)) : label);
    result.telemetry.traceGenSec = traceGenSeconds(scenario);
    result.telemetry.threads = 1;
    publishRunCompleted(result);
    if (recordAdhoc_)
        adhoc_.push_back(result);
    return result;
}

std::vector<core::RunResult>
Runner::runBatch(const std::vector<RunSpec>& specs)
{
    std::vector<core::RunResult> results;
    results.reserve(specs.size());
    const std::string batch = "b" + std::to_string(nextSinkSeq()) + "x";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec& spec = specs[i];
        const workload::ArrivalTrace* shared =
            spec.scenarioOverride ? nullptr : &trace(spec.scenario);
        core::RunResult result =
            executeSpec(spec, shared, batch + std::to_string(i));
        if (!spec.scenarioOverride)
            result.telemetry.traceGenSec = traceGenSeconds(spec.scenario);
        if (recordAdhoc_)
            adhoc_.push_back(result);
        results.push_back(std::move(result));
    }
    return results;
}

void
Runner::prewarm(bool includeUnprofiled)
{
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        for (core::StrategyKind strategy : core::kAllStrategies) {
            run(scenario, strategy, true);
            if (includeUnprofiled)
                run(scenario, strategy, false);
        }
    }
}

core::RunResult
Runner::executeSpec(const RunSpec& spec,
                    const workload::ArrivalTrace* sharedTrace,
                    const std::string& sinkTag) const
{
    core::EngineConfig cfg = spec.config;
    cfg.seed = spec.seedOverride.value_or(options_.seed);
    applySinkTag(cfg, sinkTag);
    core::Engine engine(cfg);
    const std::string label = spec.label.empty()
        ? std::string(workload::toString(spec.scenario))
        : spec.label;
    if (spec.scenarioOverride) {
        const auto start = obs::PhaseProfiler::Clock::now();
        const workload::ArrivalTrace local =
            workload::generateScenario(*spec.scenarioOverride);
        const double gen_sec = secondsSince(start);
        core::RunResult result = engine.run(local, spec.strategy, label);
        result.telemetry.traceGenSec = gen_sec;
        result.telemetry.threads = 1;
        publishRunCompleted(result);
        return result;
    }
    core::RunResult result = engine.run(*sharedTrace, spec.strategy, label);
    result.telemetry.threads = 1;
    publishRunCompleted(result);
    return result;
}

} // namespace hcloud::exp
