/**
 * @file
 * The two simulator workloads.
 *
 * fig12-sweep: exp::runSweep over exp::fig12SweepGrid (3 scenarios x 5
 * strategies x kFig12Seeds seeds derived from --seed) at paper scale,
 * tracing off. The per-tick engine loop does almost all the work.
 *
 * fig15-jsonl: the Figure 15 retention grid through the path the
 * bench_fig* binaries use (runtime::ParallelRunner + exp::fig15Retention)
 * with decision tracing and timeline sampling streaming to sink parts,
 * merged into two JSONL files. A fresh engine per cell, the retention
 * layer and the obs ring/sink/merge stack carry the load.
 *
 * The untraced pass first measures the workload's set-up (setup_s), then
 * repeats the unit of work until --seconds is spent and reports medians
 * of its process CPU time (see processCpuSeconds). The traced pass
 * repeats it untraced for half the budget, then runs it once more with an
 * obs::SpanTracer bound and an obs::SpanScope around every call the
 * harness makes into a module, and reports the per-layer metrics.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "cloud/pricing.hpp"
#include "cloud/provider_profile.hpp"
#include "common.hpp"
#include "core/engine_run.hpp"
#include "core/strategy.hpp"
#include "exp/figures.hpp"
#include "exp/report_json.hpp"
#include "exp/sweep.hpp"
#include "runtime/parallel_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace {

using namespace hcloud;

/** Seeds per fig12 cell: 75 runs per sweep, about 6 s on 4 threads. */
constexpr std::size_t kFig12Seeds = 5;

/** Grids per fig15 repetition, each on its own seed derived from --seed:
 *  one grid runs a single HighVariability trace, so averaging two keeps
 *  the workload from hanging on one trace's luck. */
constexpr std::size_t kFig15Seeds = 2;

/** Set-up passes per run; setup_s is their median. */
constexpr int kSetupRepeats = 9;

/** Fig15 retention multiples, as exp::fig15Retention sweeps them. */
const std::vector<double> kRetentionMultiples = {0.0,   10.0,  50.0,
                                                 100.0, 250.0, 500.0};

core::EngineConfig
untracedConfig()
{
    core::EngineConfig cfg;
    cfg.trace.mode = obs::TraceConfig::Mode::Off;
    cfg.timeline.mode = obs::TimelineConfig::Mode::Off;
    return cfg;
}

/**
 * CPU seconds of the set-up a sim workload pays before its first event,
 * done again from outside on this thread: every scenario trace it runs
 * (workload::generateScenario per scenario in @p kinds and seed in
 * @p seeds) and one fresh core::EngineRun per strategy, which
 * bootstraps the strategy's classifier. The median of kSetupRepeats
 * passes, scaled to the reference host by @p host over all of them: one
 * pass can be shorter than the sampler's period.
 */
double
simSetupCpu(const HostSpeed& host,
            const std::vector<workload::ScenarioKind>& kinds,
            const std::vector<std::uint64_t>& seeds)
{
    static const cloud::ProviderProfile profile =
        cloud::ProviderProfile::gce();
    std::vector<double> took;
    std::size_t jobs = 0;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSetupRepeats; ++i) {
        const double cpu0 = processCpuSeconds();
        for (workload::ScenarioKind kind : kinds) {
            for (std::uint64_t seed : seeds) {
                workload::ScenarioConfig cfg;
                cfg.kind = kind;
                cfg.loadScale = 1.0;
                cfg.seed = seed;
                jobs += workload::generateScenario(cfg).jobs().size();
            }
        }
        core::EngineConfig cfg = untracedConfig();
        cfg.seed = seeds.front();
        for (core::StrategyKind s : core::kAllStrategies) {
            const core::EngineRun engine(
                cfg, profile, [s](core::EngineContext& ctx) {
                    return core::makeStrategy(s, ctx);
                });
        }
        took.push_back(cpuSince(cpu0));
    }
    if (jobs == 0)
        throw std::runtime_error("set-up generated no jobs");
    return median(took) * host.factor(start, Clock::now());
}

/** Digest of everything a run simulated (no wall-clock, no trace
 *  buffers), so JSONL-on and JSONL-off runs must agree. */
void
digestRun(Fnv& h, const core::RunResult& r)
{
    static const cloud::AwsStylePricing pricing;
    h.str(r.strategy);
    h.str(r.scenario);
    h.u64(r.profiling);
    h.f64(r.makespan);
    h.u64(r.jobCount);
    h.u64(r.failedJobs);
    h.u64(r.acquisitions);
    h.u64(r.immediateReleases);
    h.u64(r.reschedules);
    h.u64(r.spotInterruptions);
    h.u64(r.queuedJobs);
    h.f64(r.reservedUtilizationAvg);
    h.f64(r.cost(pricing).total());
    for (const core::JobOutcome& o : r.outcomes) {
        h.u64(o.id);
        h.u64(o.failed);
        h.u64(o.onReserved);
        h.f64(o.perfNorm);
        h.f64(o.turnaroundMin);
        h.f64(o.latencyP99Us);
        h.f64(o.waitSec);
        h.u64(static_cast<std::uint64_t>(o.reschedules));
    }
    h.u64(r.telemetry.eventsProcessed);
}

/** Redirects stdout to /dev/null while alive (the figure drivers print
 *  their tables; the harness's stdout is its result stream). */
class SilenceStdout
{
  public:
    SilenceStdout()
    {
        std::fflush(stdout);
        saved_ = ::dup(STDOUT_FILENO);
        const int null = ::open("/dev/null", O_WRONLY);
        if (null >= 0) {
            ::dup2(null, STDOUT_FILENO);
            ::close(null);
        }
    }
    ~SilenceStdout()
    {
        std::fflush(stdout);
        if (saved_ >= 0) {
            ::dup2(saved_, STDOUT_FILENO);
            ::close(saved_);
        }
    }
    SilenceStdout(const SilenceStdout&) = delete;
    SilenceStdout& operator=(const SilenceStdout&) = delete;

  private:
    int saved_ = -1;
};

std::string
joinNames(const std::vector<std::string>& v)
{
    std::string out;
    for (const std::string& s : v)
        out += (out.empty() ? "" : ",") + s;
    return out;
}

// ---- fig12-sweep ------------------------------------------------------

struct SweepRep
{
    double wall = 0.0;
    double cpu = 0.0;
    double rssMb = 0.0;
    std::uint64_t events = 0;
    std::uint64_t runs = 0;
    exp::SweepTelemetry telemetry;
    std::string digest;
    exp::SweepResult result;
};

exp::SweepOptions
fig12Options(const RunOptions& opts)
{
    exp::SweepOptions so;
    so.title = "perfbench_fig12";
    so.seeds = kFig12Seeds;
    so.baseSeed = opts.seed;
    so.loadScale = 1.0;
    so.threads = opts.threads;
    return so;
}

SweepRep
fig12Rep(const std::vector<exp::SweepCell>& cells,
         const exp::SweepOptions& so)
{
    SweepRep rep;
    resetPeakRss();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    rep.result = exp::runSweep(cells, so);
    rep.wall = secondsSince(start);
    rep.cpu = cpuSince(cpu0);
    rep.rssMb = peakRssMb();
    rep.telemetry = rep.result.telemetry;
    rep.events = rep.telemetry.eventsProcessed;
    rep.runs = rep.telemetry.runs;
    Fnv h;
    h.str(exp::sweepCellsJson(rep.result));
    rep.digest = h.hex();
    return rep;
}

/** The paper orderings the sweep must reproduce: HF and HM cost less
 *  than OdM in every scenario; SR utilization falls static > low > high. */
void
checkFig12Orderings(const exp::SweepResult& r, WorkloadResult& out)
{
    std::map<std::pair<workload::ScenarioKind, core::StrategyKind>, double>
        cost, util;
    for (const exp::SweepCellAggregate& c : r.cells) {
        cost[{c.scenario, c.strategy}] = c.cost.mean;
        util[{c.scenario, c.strategy}] = c.utilization.mean;
    }
    std::vector<std::string> bad;
    for (workload::ScenarioKind s : workload::kAllScenarios) {
        const double odm = cost[{s, core::StrategyKind::OdM}];
        for (core::StrategyKind h :
             {core::StrategyKind::HF, core::StrategyKind::HM}) {
            if (!(cost[{s, h}] < odm))
                bad.push_back(std::string(workload::toString(s)) + "/" +
                              core::toString(h));
        }
    }
    out.check("fig12.hybrid_cheaper_than_odm", bad.empty(),
              bad.empty() ? "HF,HM < OdM in every scenario"
                          : "violated: " + joinNames(bad));
    const double us = util[{workload::ScenarioKind::Static,
                            core::StrategyKind::SR}];
    const double ul = util[{workload::ScenarioKind::LowVariability,
                            core::StrategyKind::SR}];
    const double uh = util[{workload::ScenarioKind::HighVariability,
                            core::StrategyKind::SR}];
    char detail[128];
    std::snprintf(detail, sizeof detail,
                  "SR util static %.4f > low %.4f > high %.4f", us, ul, uh);
    out.check("fig12.sr_util_falls_with_variability", us > ul && ul > uh,
              detail);
}

/** Jobs one fig12 sweep simulates: every cell runs its whole trace. */
std::uint64_t
fig12JobsPerSweep(const std::vector<exp::SweepCell>& cells,
                  const exp::SweepOptions& so)
{
    std::map<workload::ScenarioKind, std::uint64_t> perScenario;
    const std::vector<std::uint64_t> seeds =
        exp::deriveSeedList(so.baseSeed, so.seeds);
    for (workload::ScenarioKind kind : workload::kAllScenarios) {
        for (std::uint64_t seed : seeds) {
            workload::ScenarioConfig cfg;
            cfg.kind = kind;
            cfg.loadScale = so.loadScale;
            cfg.seed = seed;
            perScenario[kind] += workload::generateScenario(cfg).jobs().size();
        }
    }
    std::uint64_t jobs = 0;
    for (const exp::SweepCell& c : cells)
        jobs += perScenario[c.scenario];
    return jobs;
}

/** Per-layer numbers of one traced fig12 replay. */
struct ReplayStats
{
    double wall = 0.0;
    double busy = 0.0;
    double simLoop = 0.0;
    double finalize = 0.0;
    std::uint64_t events = 0;
    std::uint64_t builds = 0;
};

/**
 * The fig12 grid driven from outside through the same public pieces
 * runSweep composes — runtime::ThreadPool, one shared trace per
 * (scenario, seed) from workload::generateScenario, a pool of
 * core::EngineRun re-armed by reset(), EngineRun::runBatch — with a span
 * around each call. Every pool task is the root of its own trace in the
 * tracer bound to the calling thread.
 */
ReplayStats
fig12TracedReplay(const std::vector<exp::SweepCell>& cells,
                  const exp::SweepOptions& so)
{
    ReplayStats st;
    const std::vector<std::uint64_t> seeds =
        exp::deriveSeedList(so.baseSeed, so.seeds);
    const std::size_t tasks = cells.size() * seeds.size();
    static const cloud::ProviderProfile profile =
        cloud::ProviderProfile::gce();

    obs::SpanTracer* tracer = obs::currentSpanTracer();
    const Clock::time_point start = Clock::now();
    runtime::ThreadPool pool(so.threads);

    // One trace per (scenario, seed), shared by that column's strategies:
    // the set runSweep's digest-keyed cache ends up holding.
    std::vector<workload::ScenarioConfig> configs;
    for (workload::ScenarioKind kind : workload::kAllScenarios) {
        for (std::uint64_t seed : seeds) {
            workload::ScenarioConfig scfg;
            scfg.kind = kind;
            scfg.loadScale = so.loadScale;
            scfg.seed = seed;
            configs.push_back(scfg);
        }
    }
    std::vector<workload::ArrivalTrace> traces(configs.size());
    runtime::parallelFor(
        pool, 0, configs.size(),
        [&](std::size_t i) {
            TraceRoot root(tracer);
            obs::SpanScope gen("workload.generate_scenario");
            traces[i] = workload::generateScenario(configs[i]);
        },
        /*chunk=*/1);

    std::mutex mutex;
    std::vector<std::unique_ptr<core::EngineRun>> idle;
    runtime::parallelFor(
        pool, 0, tasks,
        [&](std::size_t t) {
            const Clock::time_point taskStart = Clock::now();
            TraceRoot root(tracer);
            obs::SpanScope task("runtime.task");
            const exp::SweepCell& cell = cells[t / seeds.size()];
            const std::size_t scenario = static_cast<std::size_t>(
                std::find(std::begin(workload::kAllScenarios),
                          std::end(workload::kAllScenarios), cell.scenario) -
                std::begin(workload::kAllScenarios));
            const std::size_t traceIndex =
                scenario * seeds.size() + t % seeds.size();
            const workload::ScenarioConfig& scfg = configs[traceIndex];

            core::EngineConfig cfg = cell.config;
            cfg.seed = scfg.seed;
            const auto factory = [&cell](core::EngineContext& ctx) {
                return core::makeStrategy(cell.strategy, ctx);
            };
            std::unique_ptr<core::EngineRun> engine;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (!idle.empty()) {
                    engine = std::move(idle.back());
                    idle.pop_back();
                }
            }
            const bool reused = engine != nullptr;
            if (reused) {
                obs::SpanScope s("core.engine_reset");
                engine->reset(cfg, profile, factory);
            } else {
                obs::SpanScope s("core.engine_build");
                engine = std::make_unique<core::EngineRun>(cfg, profile,
                                                           factory);
            }
            core::RunResult run;
            {
                obs::SpanScope s("core.run_batch");
                run = engine->runBatch(traces[traceIndex],
                                       workload::toString(cell.scenario));
            }
            std::lock_guard<std::mutex> lock(mutex);
            idle.push_back(std::move(engine));
            if (!reused)
                ++st.builds;
            st.simLoop += run.telemetry.simLoopSec;
            st.finalize += run.telemetry.finalizeSec;
            st.events += run.telemetry.eventsProcessed;
            st.busy += secondsSince(taskStart);
        },
        /*chunk=*/1);
    st.wall = secondsSince(start);
    return st;
}

void
setCoreLayer(WorkloadResult& out, double simLoop, double finalize,
             std::uint64_t events)
{
    out.set("core.sim_loop_s", simLoop, "s");
    out.set("core.events", static_cast<double>(events), "count");
    out.set("core.us_per_event",
            events > 0 ? simLoop * 1e6 / static_cast<double>(events) : 0.0,
            "us");
    out.set("core.finalize_s", finalize, "s");
}

// ---- fig15-jsonl ------------------------------------------------------

struct Fig15Rep
{
    double wall = 0.0;
    double cpu = 0.0;
    /** Peak RSS of the repetition this grid opens (set by the caller). */
    double rssMb = 0.0;
    double engineSetup = 0.0;
    double batchWall = 0.0;
    double batchBusy = 0.0;
    double simLoop = 0.0;
    double finalize = 0.0;
    double mergeSec = 0.0;
    std::uint64_t events = 0;
    std::uint64_t jobs = 0;
    std::uint64_t runs = 0;
    std::uint64_t traceGenerations = 0;
    std::uint64_t traceRecords = 0;
    std::uint64_t timelineRecords = 0;
    std::uint64_t sinkBytes = 0;
    std::string digest;
    bool mergedOk = false;
    bool linesOk = false;
    std::string linesDetail;
};

/** How a fig15 repetition is driven. */
enum class Fig15Drive
{
    /** exp::fig15Retention, exactly as bench_fig15_retention runs it. */
    Figure,
    /** The same cells as separate runner calls, each under a span. */
    Spanned,
    /** Spanned, with tracing and timeline sampling off (no JSONL). */
    NoJsonl,
};

Fig15Rep
fig15Rep(const RunOptions& opts, std::uint64_t seed, Fig15Drive drive,
         int repIndex)
{
    namespace fs = std::filesystem;
    const bool jsonl = drive != Fig15Drive::NoJsonl;
    const std::string dir =
        opts.workDir + "/fig15-" + std::to_string(repIndex);
    fs::create_directories(dir);
    const std::string tracePath = dir + "/trace.jsonl";
    const std::string timelinePath = dir + "/timeline.jsonl";

    exp::ExperimentOptions eo;
    eo.loadScale = 1.0;
    eo.seed = seed;
    eo.threads = opts.threads;
    core::EngineConfig base = untracedConfig();
    if (jsonl) {
        base.trace.mode = obs::TraceConfig::Mode::On;
        base.trace.sinkStem = dir + "/trace";
        base.timeline.mode = obs::TimelineConfig::Mode::On;
        base.timeline.sinkStem = dir + "/timeline";
    }

    Fig15Rep rep;
    const double cpu0 = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    auto runner = std::make_unique<runtime::ParallelRunner>(eo, base);
    runner->setRecordAdhoc(true);
    if (drive == Fig15Drive::Figure) {
        SilenceStdout quiet;
        exp::fig15Retention(*runner);
    } else {
        {
            obs::SpanScope s("workload.generate_scenario");
            runner->trace(workload::ScenarioKind::HighVariability);
        }
        {
            obs::SpanScope s("workload.generate_scenario");
            runner->trace(workload::ScenarioKind::Static);
        }
        {
            obs::SpanScope s("exp.run_cell");
            runner->run(workload::ScenarioKind::Static,
                        core::StrategyKind::SR);
        }
        std::vector<exp::RunSpec> specs;
        for (core::StrategyKind s : core::kAllStrategies) {
            for (double multiple : kRetentionMultiples) {
                exp::RunSpec spec;
                spec.scenario = workload::ScenarioKind::HighVariability;
                spec.strategy = s;
                spec.config = runner->baseConfig();
                spec.config.retentionMultiple = multiple;
                specs.push_back(std::move(spec));
            }
        }
        const Clock::time_point batchStart = Clock::now();
        obs::SpanScope s("exp.run_batch");
        runner->runBatch(specs);
        rep.batchWall = secondsSince(batchStart);
    }
    if (jsonl) {
        obs::SpanScope s("obs.merge_jsonl");
        const Clock::time_point mergeStart = Clock::now();
        rep.mergedOk = exp::writeTraceJsonl(tracePath, *runner, true) &&
            exp::writeTimelineJsonl(timelinePath, *runner, true);
        rep.mergeSec = secondsSince(mergeStart);
    } else {
        rep.mergedOk = true;
    }
    rep.wall = secondsSince(start);
    rep.cpu = cpuSince(cpu0);

    // Everything below reads results; it is not part of the timed wait.
    std::set<std::string> scenarios;
    Fnv h;
    auto fold = [&](const core::RunResult& r, bool batch) {
        digestRun(h, r);
        ++rep.runs;
        rep.engineSetup += r.telemetry.setupSec;
        scenarios.insert(r.scenario);
        rep.simLoop += r.telemetry.simLoopSec;
        rep.finalize += r.telemetry.finalizeSec;
        rep.events += r.telemetry.eventsProcessed;
        rep.jobs += r.jobCount;
        rep.traceRecords += r.trace.recorded;
        rep.timelineRecords += r.timeline.recorded;
        if (batch)
            rep.batchBusy += r.telemetry.setupSec + r.telemetry.simLoopSec +
                r.telemetry.finalizeSec;
    };
    for (const auto& [key, r] : runner->results())
        fold(r, false);
    for (const core::RunResult& r : runner->adhocResults())
        fold(r, true);
    // A runner generates each scenario's trace once and attributes it
    // to every cell that consumed it: count it once per scenario.
    rep.traceGenerations = scenarios.size();
    rep.digest = h.hex();

    if (jsonl) {
        // One header line per run plus one line per recorded record.
        const long long traceLines = countLines(tracePath);
        const long long timelineLines = countLines(timelinePath);
        const long long wantTrace =
            static_cast<long long>(rep.runs + rep.traceRecords);
        const long long wantTimeline =
            static_cast<long long>(rep.runs + rep.timelineRecords);
        rep.linesOk = traceLines == wantTrace && timelineLines == wantTimeline;
        char detail[160];
        std::snprintf(detail, sizeof detail,
                      "trace %lld/%lld lines, timeline %lld/%lld lines",
                      traceLines, wantTrace, timelineLines, wantTimeline);
        rep.linesDetail = detail;
        rep.sinkBytes = fileBytes(tracePath) + fileBytes(timelinePath);
    } else {
        rep.linesOk = true;
    }
    runner.reset();
    fs::remove_all(dir);
    return rep;
}

} // namespace

WorkloadResult
runFig12Sweep(const RunOptions& opts)
{
    WorkloadResult out;
    const std::vector<exp::SweepCell> cells =
        exp::fig12SweepGrid(untracedConfig());
    const exp::SweepOptions so = fig12Options(opts);
    const std::uint64_t jobsPerSweep = fig12JobsPerSweep(cells, so);
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    const HostSpeed host;
    const double setup = opts.trace
        ? 0.0
        : simSetupCpu(host,
                      {std::begin(workload::kAllScenarios),
                       std::end(workload::kAllScenarios)},
                      exp::deriveSeedList(so.baseSeed, so.seeds));

    std::vector<SweepRep> reps;
    const std::vector<double> factors = repeatWithin(
        host, budget, [&] { reps.push_back(fig12Rep(cells, so)); });

    std::vector<double> wall, rawCpu, cpu, evps, jobps, rss;
    std::uint64_t mismatched = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const SweepRep& r = reps[i];
        const double scaled = r.cpu * factors[i];
        wall.push_back(r.wall);
        rawCpu.push_back(r.cpu);
        cpu.push_back(scaled);
        rss.push_back(r.rssMb);
        evps.push_back(static_cast<double>(r.events) / scaled);
        jobps.push_back(static_cast<double>(jobsPerSweep) / scaled);
        out.attempted += r.runs;
        if (r.digest != reps.front().digest ||
            r.events != reps.front().events) {
            out.failed += r.runs;
            ++mismatched;
        }
    }
    out.digests["fig12.cells"] = reps.front().digest;
    out.check("fig12.cells_digest_stable", mismatched == 0,
              std::to_string(reps.size()) + " sweeps, digest " +
                  reps.front().digest);
    out.check("fig12.runs_complete",
              reps.front().runs == cells.size() * kFig12Seeds,
              std::to_string(reps.front().runs) + " runs per sweep");
    checkFig12Orderings(reps.front().result, out);
    out.notes.push_back("fig12-sweep: wall per sweep " + listSeconds(wall));
    out.notes.push_back("fig12-sweep: CPU per sweep " + listSeconds(rawCpu));
    out.notes.push_back("fig12-sweep: " + std::to_string(reps.size()) +
                        " sweeps of " + std::to_string(cells.size()) +
                        " cells x " + std::to_string(kFig12Seeds) +
                        " seeds, " + std::to_string(reps.front().events) +
                        " events and " + std::to_string(jobsPerSweep) +
                        " jobs per sweep");

    if (!opts.trace) {
        const auto n = static_cast<std::uint64_t>(reps.size());
        out.notes.push_back(hostFactorNote(factors, host));
        out.notes.push_back(
            wallNote(opts.workload, wall,
                     static_cast<double>(reps.front().events),
                     static_cast<double>(jobsPerSweep)));
        out.set("setup_s", setup, "s", kSetupRepeats);
        out.set("cpu_s", median(cpu), "s", n);
        out.set("events_per_cpu_s", median(evps), "ev/s", n);
        out.set("jobs_per_cpu_s", median(jobps), "1/s", n);
        out.set("peak_rss_mb", median(rss), "MiB", n);
        return out;
    }

    obs::SpanTracer tracer(obs::SpanTracerConfig{opts.spanPath});
    ReplayStats st;
    {
        TraceRoot root(&tracer);
        st = fig12TracedReplay(cells, so);
    }
    tracer.flush();
    const std::vector<SpanLine> spans = readSpans(opts.spanPath);
    addSelfSeconds(spans, out.layerSelfSeconds);
    out.check("spans.recorded", !spans.empty(),
              std::to_string(spans.size()) + " spans in " + opts.spanPath);
    out.check("fig12.replay_events_match", st.events == reps.front().events,
              std::to_string(st.events) + " replayed vs " +
                  std::to_string(reps.front().events) + " swept events");

    std::uint64_t generations = 0;
    out.set("workload.generate_s",
            spanSeconds(spans, "workload.generate_scenario", &generations),
            "s");
    out.set("workload.generate_calls", static_cast<double>(generations),
            "count");
    out.set("profiling.bootstrap_s",
            static_cast<double>(st.builds) * bootstrapSeconds(), "s");
    out.set("core.engine_build_s", spanSeconds(spans, "core.engine_build"),
            "s");
    out.set("core.engine_reset_s", spanSeconds(spans, "core.engine_reset"),
            "s");
    setCoreLayer(out, st.simLoop, st.finalize, st.events);
    const exp::SweepTelemetry& tel = reps.front().telemetry;
    out.set("exp.trace_cache_hit_ratio",
            static_cast<double>(tel.traceCacheHits) /
                static_cast<double>(tel.traceCacheHits + tel.traceCacheMisses),
            "ratio");
    out.set("exp.engine_reuse_ratio",
            static_cast<double>(tel.engineResets) /
                static_cast<double>(tel.runs),
            "ratio");
    out.set("runtime.pool_idle_frac",
            1.0 - st.busy / (static_cast<double>(opts.threads) * st.wall),
            "fraction");
    out.set("trace.overhead_s", st.wall - median(wall), "s");
    return out;
}

WorkloadResult
runFig15Jsonl(const RunOptions& opts)
{
    WorkloadResult out;
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;

    const std::vector<std::uint64_t> seeds =
        exp::deriveSeedList(opts.seed, kFig15Seeds);
    const HostSpeed host;
    const double setup = opts.trace
        ? 0.0
        : simSetupCpu(host,
                      {workload::ScenarioKind::HighVariability,
                       workload::ScenarioKind::Static},
                      seeds);

    // grids[k] holds repetition k: one grid per derived seed.
    std::vector<std::vector<Fig15Rep>> grids;
    const std::vector<double> factors = repeatWithin(host, budget, [&] {
        std::vector<Fig15Rep> rep;
        resetPeakRss();
        for (std::uint64_t seed : seeds)
            rep.push_back(fig15Rep(opts, seed, Fig15Drive::Figure,
                                   static_cast<int>(grids.size())));
        rep.front().rssMb = peakRssMb();
        grids.push_back(std::move(rep));
    });

    std::vector<double> wall, rawCpu, cpu, evps, jobps, rss, firstGridWall;
    std::uint64_t repEvents = 0, repJobs = 0;
    std::uint64_t mismatched = 0;
    bool linesOk = true;
    for (std::size_t k = 0; k < grids.size(); ++k) {
        const std::vector<Fig15Rep>& rep = grids[k];
        double w = 0.0, c = 0.0;
        std::uint64_t events = 0, jobs = 0;
        for (std::size_t i = 0; i < rep.size(); ++i) {
            const Fig15Rep& r = rep[i];
            const Fig15Rep& ref = grids.front()[i];
            w += r.wall;
            c += r.cpu;
            events += r.events;
            jobs += r.jobs;
            out.attempted += r.runs;
            const bool ok = r.digest == ref.digest && r.mergedOk &&
                r.linesOk && r.traceRecords == ref.traceRecords &&
                r.timelineRecords == ref.timelineRecords;
            if (!ok) {
                out.failed += r.runs;
                ++mismatched;
            }
            linesOk = linesOk && r.mergedOk && r.linesOk;
        }
        firstGridWall.push_back(rep.front().wall);
        const double scaled = c * factors[k];
        repEvents = events;
        repJobs = jobs;
        wall.push_back(w);
        rawCpu.push_back(c);
        cpu.push_back(scaled);
        evps.push_back(static_cast<double>(events) / scaled);
        jobps.push_back(static_cast<double>(jobs) / scaled);
        rss.push_back(rep.front().rssMb);
    }
    const Fig15Rep& first = grids.front().front();
    for (std::size_t i = 0; i < seeds.size(); ++i)
        out.digests["fig15.runs.seed" + std::to_string(i)] =
            grids.front()[i].digest;
    out.check("fig15.runs_digest_stable", mismatched == 0,
              std::to_string(grids.size()) + " repetitions of " +
                  std::to_string(seeds.size()) + " grids, first digest " +
                  first.digest);
    out.check("fig15.jsonl_lines_match_records", linesOk,
              first.linesDetail);
    const std::vector<Fig15Rep>& reps = grids.front();
    out.notes.push_back("fig15-jsonl: wall per repetition " +
                        listSeconds(wall));
    out.notes.push_back("fig15-jsonl: CPU per repetition " +
                        listSeconds(rawCpu));
    out.notes.push_back(
        "fig15-jsonl: " + std::to_string(grids.size()) + " repetitions of " +
        std::to_string(reps.size()) + " grids; first grid " +
        std::to_string(first.runs) + " runs, " +
        std::to_string(first.events) + " events, " +
        std::to_string(first.traceRecords) + " trace + " +
        std::to_string(first.timelineRecords) + " timeline records, " +
        std::to_string(first.sinkBytes) + " JSONL bytes per grid");

    if (!opts.trace) {
        const auto n = static_cast<std::uint64_t>(grids.size());
        out.notes.push_back(hostFactorNote(factors, host));
        out.notes.push_back(wallNote(opts.workload, wall,
                                     static_cast<double>(repEvents),
                                     static_cast<double>(repJobs)));
        out.set("setup_s", setup, "s", kSetupRepeats);
        out.set("cpu_s", median(cpu), "s", n);
        out.set("events_per_cpu_s", median(evps), "ev/s", n);
        out.set("jobs_per_cpu_s", median(jobps), "1/s", n);
        out.set("peak_rss_mb", median(rss), "MiB", n);
        return out;
    }

    // The traced and JSONL-off grids run the first seed only.
    obs::SpanTracer tracer(obs::SpanTracerConfig{opts.spanPath});
    Fig15Rep traced;
    {
        TraceRoot root(&tracer);
        traced = fig15Rep(opts, seeds.front(), Fig15Drive::Spanned, 1000);
    }
    tracer.flush();
    const std::vector<SpanLine> spans = readSpans(opts.spanPath);
    addSelfSeconds(spans, out.layerSelfSeconds);
    out.check("spans.recorded", !spans.empty(),
              std::to_string(spans.size()) + " spans in " + opts.spanPath);
    const Fig15Rep plain =
        fig15Rep(opts, seeds.front(), Fig15Drive::NoJsonl, 1001);
    out.check("fig15.spanned_drive_matches_figure",
              traced.digest == first.digest,
              "spanned " + traced.digest + " vs figure " + first.digest);
    out.check("fig15.jsonl_off_replay_matches", plain.digest == first.digest,
              "JSONL-off " + plain.digest + " vs JSONL-on " + first.digest);
    out.check("fig15.traced_jsonl_lines_match_records",
              traced.mergedOk && traced.linesOk, traced.linesDetail);
    out.attempted += traced.runs + plain.runs;
    if (traced.digest != first.digest || !traced.linesOk)
        out.failed += traced.runs;
    if (plain.digest != first.digest)
        out.failed += plain.runs;

    std::uint64_t generations = 0;
    out.set("workload.generate_s",
            spanSeconds(spans, "workload.generate_scenario", &generations),
            "s");
    out.set("workload.generate_calls", static_cast<double>(generations),
            "count");
    // Every Runner cell constructs a fresh engine: its RunTelemetry setup
    // phase is the build (construction, wiring, arrival scheduling).
    out.set("profiling.bootstrap_s",
            static_cast<double>(traced.runs) * bootstrapSeconds(), "s");
    out.set("core.engine_build_s", traced.engineSetup, "s");
    out.set("core.engine_reset_s", 0.0, "s");
    setCoreLayer(out, traced.simLoop, traced.finalize, traced.events);
    out.set("exp.trace_cache_hit_ratio",
            static_cast<double>(traced.runs - traced.traceGenerations) /
                static_cast<double>(traced.runs),
            "ratio");
    out.set("exp.engine_reuse_ratio", 0.0, "ratio");
    out.set("runtime.pool_idle_frac",
            1.0 - traced.batchBusy /
                    (static_cast<double>(opts.threads) * traced.batchWall),
            "fraction");
    out.set("obs.trace_records", static_cast<double>(traced.traceRecords),
            "count");
    out.set("obs.timeline_records",
            static_cast<double>(traced.timelineRecords), "count");
    out.set("obs.sink_bytes", static_cast<double>(traced.sinkBytes), "bytes");
    out.set("obs.merge_s", traced.mergeSec, "s");
    out.set("trace.overhead_s", traced.wall - median(firstGridWall), "s");
    return out;
}

} // namespace perfbench
