/**
 * @file
 * Determinism of the parallel execution runtime: for the same root seed,
 * an exp::Runner on a worker pool must produce bit-identical RunResults
 * to a one-thread (serial) Runner — across the full (scenario x strategy
 * x profiling) matrix, runBatch() sweeps and concurrent runWith() calls —
 * regardless of thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "cloud/pricing.hpp"
#include "exp/runner.hpp"
#include "runtime/thread_pool.hpp"

namespace hcloud {
namespace {

/**
 * Flatten the numeric spine of a RunResult. Comparing two digests with
 * EXPECT_EQ on doubles is an exact (bitwise-equality for non-NaN values)
 * check, which is the contract under test.
 */
std::vector<double>
digest(const core::RunResult& r)
{
    const cloud::AwsStylePricing pricing;
    const cloud::CostBreakdown cost = r.cost(pricing);
    std::vector<double> d = {
        r.makespan,
        r.meanPerfNorm(),
        r.reservedUtilizationAvg,
        static_cast<double>(r.jobCount),
        static_cast<double>(r.failedJobs),
        static_cast<double>(r.acquisitions),
        static_cast<double>(r.immediateReleases),
        static_cast<double>(r.reschedules),
        static_cast<double>(r.queuedJobs),
        static_cast<double>(r.outcomes.size()),
        static_cast<double>(r.instanceTimelines.size()),
        cost.reserved,
        cost.onDemand,
    };
    for (const sim::SampleSet* ss :
         {&r.batchTurnaroundMin, &r.batchPerfNorm, &r.lcLatencyUs,
          &r.lcPerfNorm, &r.perfReserved, &r.perfOnDemand,
          &r.spinUpWaits, &r.queueWaits}) {
        d.push_back(static_cast<double>(ss->count()));
        if (!ss->empty()) {
            d.push_back(ss->mean());
            d.push_back(ss->quantile(0.05));
            d.push_back(ss->quantile(0.5));
            d.push_back(ss->quantile(0.95));
        }
    }
    return d;
}

void
expectIdentical(const core::RunResult& serial,
                const core::RunResult& parallel, const char* what)
{
    EXPECT_EQ(serial.strategy, parallel.strategy) << what;
    EXPECT_EQ(serial.scenario, parallel.scenario) << what;
    EXPECT_EQ(serial.profiling, parallel.profiling) << what;
    const std::vector<double> a = digest(serial);
    const std::vector<double> b = digest(parallel);
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << what << " digest[" << i << "]";
    // Bit-exact per-job outcomes, not just aggregates.
    ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size()) << what;
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
        const core::JobOutcome& x = serial.outcomes[i];
        const core::JobOutcome& y = parallel.outcomes[i];
        EXPECT_EQ(x.id, y.id) << what;
        EXPECT_EQ(x.perfNorm, y.perfNorm) << what << " job " << i;
        EXPECT_EQ(x.turnaroundMin, y.turnaroundMin) << what;
        EXPECT_EQ(x.latencyP99Us, y.latencyP99Us) << what;
        EXPECT_EQ(x.waitSec, y.waitSec) << what;
    }
}

exp::ExperimentOptions
smallOptions(std::size_t threads)
{
    exp::ExperimentOptions opt;
    opt.loadScale = 0.1;
    opt.seed = 42;
    opt.threads = threads;
    return opt;
}

TEST(ParallelRunnerDeterminism, FullMatrixBitIdenticalToSerialRunner)
{
    exp::Runner serial{smallOptions(1)};
    exp::Runner parallel{smallOptions(4)};
    parallel.prewarm(/*includeUnprofiled=*/true);
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        for (core::StrategyKind strategy : core::kAllStrategies) {
            for (bool profiling : {true, false}) {
                const std::string what =
                    std::string(workload::toString(scenario)) + "/" +
                    core::toString(strategy) +
                    (profiling ? "/profiled" : "/default");
                expectIdentical(
                    serial.run(scenario, strategy, profiling),
                    parallel.run(scenario, strategy, profiling),
                    what.c_str());
            }
        }
    }
}

TEST(ParallelRunnerDeterminism, RunBatchMatchesSerialOrderAndBits)
{
    exp::Runner serial{smallOptions(1)};
    exp::Runner parallel{smallOptions(3)};
    std::vector<exp::RunSpec> specs;
    for (core::StrategyKind s :
         {core::StrategyKind::SR, core::StrategyKind::HM}) {
        for (double retention : {0.0, 10.0, 100.0}) {
            exp::RunSpec spec;
            spec.scenario = workload::ScenarioKind::HighVariability;
            spec.strategy = s;
            spec.config = serial.baseConfig();
            spec.config.retentionMultiple = retention;
            specs.push_back(spec);
        }
    }
    // A scenario-override spec (the Figure 16 shape) rides along.
    exp::RunSpec withOverride;
    withOverride.strategy = core::StrategyKind::HF;
    withOverride.config = serial.baseConfig();
    workload::ScenarioConfig scenario = serial.scenarioConfig(
        workload::ScenarioKind::HighVariability);
    scenario.sensitiveFraction = 0.4;
    withOverride.scenarioOverride = scenario;
    withOverride.label = "override";
    specs.push_back(withOverride);

    const auto a = serial.runBatch(specs);
    const auto b = parallel.runBatch(specs);
    ASSERT_EQ(a.size(), specs.size());
    ASSERT_EQ(b.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectIdentical(a[i], b[i],
                        ("spec " + std::to_string(i)).c_str());
    EXPECT_EQ(b.back().scenario, "override");
}

TEST(ParallelRunnerDeterminism, SingleThreadDelegatesToSerialPath)
{
    exp::Runner serial{smallOptions(1)};
    exp::Runner one{smallOptions(1)};
    EXPECT_EQ(one.threadCount(), 1u);
    expectIdentical(serial.run(workload::ScenarioKind::Static,
                               core::StrategyKind::HM),
                    one.run(workload::ScenarioKind::Static,
                            core::StrategyKind::HM),
                    "static/HM");
}

TEST(ParallelRunnerDeterminism, RunWithHonoursRootSeed)
{
    // The seed-plumbing fix: runWith() must use options().seed even when
    // the caller's config carries a stale seed, matching the cached run()
    // path (which always ran with the root seed).
    exp::Runner runner{smallOptions(1)};
    core::EngineConfig stale = runner.baseConfig();
    stale.seed = 987654321; // forgotten by a hypothetical call site
    const core::RunResult a = runner.runWith(
        workload::ScenarioKind::Static, core::StrategyKind::SR, stale);
    core::EngineConfig fresh = runner.baseConfig();
    const core::RunResult b = runner.runWith(
        workload::ScenarioKind::Static, core::StrategyKind::SR, fresh);
    EXPECT_EQ(a.meanPerfNorm(), b.meanPerfNorm());
    EXPECT_EQ(a.makespan, b.makespan);
    // And it matches the memoized cell modulo the profiling default.
    const core::RunResult& cached = runner.run(
        workload::ScenarioKind::Static, core::StrategyKind::SR, true);
    EXPECT_EQ(a.makespan, cached.makespan);
    EXPECT_EQ(a.meanPerfNorm(), cached.meanPerfNorm());
}

TEST(ParallelRunnerDeterminism, ConcurrentCallersShareTheMemoCache)
{
    exp::Runner runner{smallOptions(4)};
    runtime::ThreadPool pool(4);
    std::vector<const core::RunResult*> seen(8, nullptr);
    runtime::parallelFor(pool, 0, seen.size(), [&](std::size_t i) {
        seen[i] = &runner.run(workload::ScenarioKind::Static,
                              core::StrategyKind::SR);
    });
    for (const core::RunResult* p : seen)
        EXPECT_EQ(p, seen[0]) << "all callers must see one cached cell";
}

TEST(ParallelRunnerDeterminism, ConcurrentRunWithRecordsEveryAdhocRun)
{
    // Concurrent runWith() calls share the trace cache and the ad-hoc
    // list: every call must be recorded once, bit-identical to a serial
    // runner's answer (CI runs this under TSan).
    auto call = [](exp::Runner& r, std::size_t i) {
        const workload::ScenarioKind scenario =
            workload::kAllScenarios[i % std::size(workload::kAllScenarios)];
        const core::StrategyKind strategy =
            i < 4 ? core::StrategyKind::SR : core::StrategyKind::HM;
        return r.runWith(scenario, strategy, r.baseConfig(),
                         "call-" + std::to_string(i));
    };
    exp::Runner runner{smallOptions(4)};
    runner.setRecordAdhoc(true);
    runtime::ThreadPool callers(4);
    runtime::parallelFor(
        callers, 0, 8, [&](std::size_t i) { call(runner, i); },
        /*chunk=*/1);

    // Completion order is scheduling-dependent; the labels are not.
    std::vector<core::RunResult> recorded = runner.adhocResults();
    ASSERT_EQ(recorded.size(), 8u);
    std::sort(recorded.begin(), recorded.end(),
              [](const core::RunResult& a, const core::RunResult& b) {
                  return a.scenario < b.scenario;
              });
    exp::Runner serial{smallOptions(1)};
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        const std::string label = "call-" + std::to_string(i);
        ASSERT_EQ(recorded[i].scenario, label);
        expectIdentical(call(serial, i), recorded[i], label.c_str());
    }
}

} // namespace
} // namespace hcloud
