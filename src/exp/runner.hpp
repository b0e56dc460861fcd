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
 * what makes a Runner's results bit-identical at any thread count.
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
 * output paths). Every tag carries a per-runner sequence number, so even
 * callers racing on one matrix cell write separate files: matrix cells use
 * "<scenario>-<strategy>[-unprofiled].<N>", batch/ad-hoc runs "b<N>x<i>" /
 * "a<N>" (their identity lives in the merged header lines, not the file
 * name).
 */

#ifndef HCLOUD_EXP_RUNNER_HPP
#define HCLOUD_EXP_RUNNER_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/types.hpp"
#include "runtime/thread_pool.hpp"
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
     * Worker threads for the Runner's pool and the sampling figures.
     * 0 = auto: the HCLOUD_THREADS environment variable if set, otherwise
     * hardware_concurrency. 1 forces the serial path.
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
 * Memoized run matrix over the three scenarios and five strategies, run on
 * a pool of threadCount() workers (options().threads, with 0 resolved by
 * runtime::defaultThreadCount(); 1 = every cell inline on the caller's
 * thread).
 *
 * Thread-safe: trace / run / runWith / runBatch / prewarm may be called
 * from concurrent caller threads. Determinism contract:
 *
 *  - every run builds its own core::Engine from the root-seed derivation
 *    above, so an engine's draws cannot be perturbed by other threads;
 *  - shared scenario traces are generated once, under the lock, and only
 *    read afterwards; per-spec scenario overrides get private traces;
 *  - runBatch() returns results in submission order
 *    (runtime::parallelMap), and the memo cache is a sorted map,
 *
 * so every figure is bit-identical at any thread count — asserted by
 * tests/test_runtime_determinism.cpp.
 */
class Runner
{
  public:
    explicit Runner(ExperimentOptions options = {},
                    core::EngineConfig baseConfig = {});

    const ExperimentOptions& options() const { return options_; }
    const core::EngineConfig& baseConfig() const { return baseConfig_; }

    /** Effective worker count (1 = serial); stamped as
     *  RunResult::telemetry.threads on every run. */
    std::size_t threadCount() const { return threads_; }

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
    const workload::ArrivalTrace& trace(workload::ScenarioKind scenario);

    /**
     * Run (and cache) one cell of the matrix. Callers racing on an
     * uncached cell each compute the bit-identical result; the first to
     * finish is kept.
     */
    const core::RunResult& run(workload::ScenarioKind scenario,
                               core::StrategyKind strategy,
                               bool profiling = true);

    /**
     * Run without caching, with a custom engine config. The config's seed
     * is replaced by options().seed (see the seed-derivation contract
     * above), so sweeps that tweak other knobs stay comparable with the
     * memoized matrix without every caller re-plumbing the seed.
     */
    core::RunResult runWith(workload::ScenarioKind scenario,
                            core::StrategyKind strategy,
                            const core::EngineConfig& config,
                            const std::string& label = {});

    /**
     * Execute a batch of uncached cells concurrently and return their
     * results in spec order.
     */
    std::vector<core::RunResult> runBatch(const std::vector<RunSpec>& specs);

    /**
     * Populate the memoized matrix (all scenarios x strategies, plus the
     * unprofiled cells when requested) concurrently. A no-op for cells
     * already cached.
     */
    void prewarm(bool includeUnprofiled = false);

  private:
    /** A shared scenario trace and the wall-clock its generation took
     *  (telemetry; attributed to every run consuming the trace). */
    struct TimedTrace
    {
        workload::ArrivalTrace trace;
        double genSec = 0.0;
    };

    /** Generate a trace, timing the generation. */
    static TimedTrace timedGenerate(const workload::ScenarioConfig& config);

    /** Generate-and-cache under the lock; returns a stable reference. */
    const TimedTrace& sharedTrace(workload::ScenarioKind scenario);

    /**
     * The one place a run happens: build the spec's engine (root seed
     * unless the spec overrides it, private sink files named by
     * @p sinkTag), run it against its private or shared trace, stamp the
     * runner telemetry and publish the run's metrics.
     */
    core::RunResult executeSpec(const RunSpec& spec,
                                const std::string& sinkTag);

    /** Copy @p result into adhocResults() when recording is on. */
    void recordAdhoc(const core::RunResult& result);

    ExperimentOptions options_;
    core::EngineConfig baseConfig_;
    std::size_t threads_;
    bool recordAdhoc_ = false;
    /** Sink-tag sequence (see "Streaming record sinks" above). */
    std::atomic<std::uint64_t> sinkSeq_{0};

    std::mutex mutex_; ///< guards traces_, results_ and adhoc_
    std::map<workload::ScenarioKind, TimedTrace> traces_;
    std::map<CellKey, core::RunResult> results_;
    std::vector<core::RunResult> adhoc_;

    /** Declared last: joined before the state its tasks touch dies. */
    runtime::ThreadPool pool_;
};

} // namespace hcloud::exp

#endif // HCLOUD_EXP_RUNNER_HPP
