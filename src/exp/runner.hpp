/**
 * @file
 * Runner: memoized (scenario x strategy x profiling) run matrix.
 *
 * Several figures share runs (e.g. the cost figures re-price the runs of
 * the performance figures), so the runner caches traces and results
 * within one process.
 *
 * ## Seed derivation
 *
 * Every run driven through a Runner uses `options().seed` as the engine's
 * root seed, on every path — the memoized run() matrix, one-off runWith()
 * calls and runBatch() sweeps alike (a RunSpec may opt out with an
 * explicit seedOverride). The engine then derives independent named child
 * streams per subsystem via sim::Rng::child(), and per-entity streams
 * keyed by stable ids below that, so neither the order in which cells
 * execute nor the thread they execute on can perturb any draw. This is
 * what makes the parallel runtime (runtime::ParallelRunner) bit-identical
 * to serial execution.
 *
 * ## Streaming record sinks
 *
 * When the base config's TraceConfig or TimelineConfig carries a
 * `sinkStem`, every run a runner executes derives a private sink file
 * per stream ("<stem>.<tag>.part"), so concurrent runs never share a
 * file descriptor and on-disk streams are never ring-truncated (the
 * obs::RecordStream contract). exp::writeTraceJsonl and
 * exp::writeTimelineJsonl merge the per-run files in deterministic
 * result order, which keeps each merged artifact byte-identical across
 * thread counts. The two stems must differ (the bench CLI refuses equal
 * output paths). Tags: matrix cells use
 * "<scenario>-<strategy>[-unprofiled]"; batch/ad-hoc runs use a per-runner
 * sequence number (their identity lives in the merged header lines, not
 * the file name).
 */

#ifndef HCLOUD_EXP_RUNNER_HPP
#define HCLOUD_EXP_RUNNER_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/types.hpp"
#include "workload/scenario.hpp"

namespace hcloud::exp {

/** Options shared by experiment drivers. */
struct ExperimentOptions
{
    /** Scales every scenario's load curve (1.0 = paper scale). */
    double loadScale = 1.0;
    /** Root seed. */
    std::uint64_t seed = 42;
    /**
     * Worker threads for parallel drivers (runtime::ParallelRunner and
     * the sampling figures). 0 = auto: the HCLOUD_THREADS environment
     * variable if set, otherwise hardware_concurrency. 1 forces the
     * serial path. Plain Runner ignores this.
     */
    std::size_t threads = 0;
};

/**
 * One cell of work for runBatch(): a strategy run against either a shared
 * scenario trace or a custom per-spec scenario (e.g. the Figure 16
 * sensitive-fraction sweep).
 */
struct RunSpec
{
    /** Scenario whose shared trace to run (unless overridden below). */
    workload::ScenarioKind scenario = workload::ScenarioKind::Static;
    core::StrategyKind strategy = core::StrategyKind::SR;
    /** Engine configuration; its seed is replaced per the class contract. */
    core::EngineConfig config{};
    /** Generate a private trace from this config instead of the shared one. */
    std::optional<workload::ScenarioConfig> scenarioOverride;
    /** Scenario label recorded in the result; empty = scenario name. */
    std::string label;
    /** Escape hatch from the root-seed contract (multi-seed studies). */
    std::optional<std::uint64_t> seedOverride;
};

/**
 * Memoized run matrix over the three scenarios and five strategies.
 *
 * The virtual cell API (trace / run / runWith / runBatch / prewarm) is the
 * extension seam for runtime::ParallelRunner, which executes the same
 * cells concurrently; this base class is strictly serial and not
 * thread-safe.
 */
class Runner
{
  public:
    explicit Runner(ExperimentOptions options = {},
                    core::EngineConfig baseConfig = {});
    virtual ~Runner() = default;

    const ExperimentOptions& options() const { return options_; }
    const core::EngineConfig& baseConfig() const { return baseConfig_; }

    /** Key of one memoized cell. */
    using CellKey =
        std::tuple<workload::ScenarioKind, core::StrategyKind, bool>;

    /**
     * The memoized result matrix (cells executed so far), in sorted key
     * order — the deterministic iteration order the JSON/JSONL report
     * writers rely on. Do not call concurrently with cell execution.
     */
    const std::map<CellKey, core::RunResult>& results() const
    {
        return results_;
    }

    /**
     * When enabled, runWith()/runBatch() results — normally returned
     * without caching — are also copied into an ad-hoc list so the
     * JSON/JSONL artifact writers can report sweep runs. Off by default:
     * RunResult copies are not cheap. Not thread-safe to toggle while
     * cells execute.
     */
    void setRecordAdhoc(bool record) { recordAdhoc_ = record; }
    const std::vector<core::RunResult>& adhocResults() const
    {
        return adhoc_;
    }

    /** Scenario-generation config prefilled with this runner's options. */
    workload::ScenarioConfig scenarioConfig(
        workload::ScenarioKind scenario) const;

    /** Generated (and cached) trace of a scenario. */
    virtual const workload::ArrivalTrace& trace(
        workload::ScenarioKind scenario);

    /** Run (and cache) one cell of the matrix. */
    virtual const core::RunResult& run(workload::ScenarioKind scenario,
                                       core::StrategyKind strategy,
                                       bool profiling = true);

    /**
     * Run without caching, with a custom engine config. The config's seed
     * is replaced by options().seed (see the seed-derivation contract
     * above), so sweeps that tweak other knobs stay comparable with the
     * memoized matrix without every caller re-plumbing the seed.
     */
    virtual core::RunResult runWith(workload::ScenarioKind scenario,
                                    core::StrategyKind strategy,
                                    const core::EngineConfig& config,
                                    const std::string& label = {});

    /**
     * Execute a batch of uncached cells and return their results in spec
     * order. Serial here; runtime::ParallelRunner executes the specs
     * concurrently with an identical, submission-ordered result vector.
     */
    virtual std::vector<core::RunResult> runBatch(
        const std::vector<RunSpec>& specs);

    /**
     * Populate the memoized matrix (all scenarios x strategies, plus the
     * unprofiled cells when requested). A no-op for cells already cached;
     * the parallel runner overrides this to fill the cache concurrently.
     */
    virtual void prewarm(bool includeUnprofiled = false);

  protected:
    /**
     * Run one spec exactly as the serial paths do: private trace if the
     * spec overrides the scenario, @p sharedTrace otherwise. Both the
     * serial and the parallel runBatch() funnel through this so the two
     * paths cannot diverge. @p sinkTag names the spec's private sink
     * file when the spec's config carries a sinkStem (see class docs).
     */
    core::RunResult executeSpec(const RunSpec& spec,
                                const workload::ArrivalTrace* sharedTrace,
                                const std::string& sinkTag) const;

    /**
     * Fold one finished run into the process-wide metrics registry
     * (obs::ProcessMetrics::instance(), `hcloud_run_*` namespace): the
     * run-completion counter, per-phase wall-clock from the phase
     * profiler, and the run's own registry snapshot as labeled families.
     * Called by every execution path, serial and parallel alike; safe
     * from concurrent tasks (the process registry is thread-safe) and
     * invisible to the simulation, so determinism contracts hold.
     */
    static void publishRunCompleted(const core::RunResult& result);

    /** Count one memoized matrix cell landing in the cache
     *  (`hcloud_cell_completed_total`). */
    static void publishCellCompleted();

    /** Sink tag of a memoized matrix cell ("static-HM[-unprofiled]"). */
    static std::string cellSinkTag(workload::ScenarioKind scenario,
                                   core::StrategyKind strategy,
                                   bool profiling);

    /** Derive cfg.trace.sinkPath and cfg.timeline.sinkPath from their
     *  sinkStems + @p tag (no-op for each empty stem). */
    static void applySinkTag(core::EngineConfig& cfg,
                             const std::string& tag);

    /** Process-unique tag for uncached runs ("a<N>", "b<N>x<i>"). */
    std::uint64_t nextSinkSeq() { return sinkSeq_++; }

    /** Wall-clock spent generating a scenario's shared trace (telemetry;
     *  attributed to every cell consuming the trace). */
    double traceGenSeconds(workload::ScenarioKind scenario) const;

    ExperimentOptions options_;
    core::EngineConfig baseConfig_;
    std::map<workload::ScenarioKind, workload::ArrivalTrace> traces_;
    std::map<workload::ScenarioKind, double> traceGenSec_;
    std::map<CellKey, core::RunResult> results_;
    bool recordAdhoc_ = false;
    std::vector<core::RunResult> adhoc_;
    /** Uncached-run sink-file sequence (atomic: runWith() may be called
     *  from concurrent caller threads under ParallelRunner). */
    std::atomic<std::uint64_t> sinkSeq_{0};
};

} // namespace hcloud::exp

#endif // HCLOUD_EXP_RUNNER_HPP
