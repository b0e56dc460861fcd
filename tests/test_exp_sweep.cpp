/**
 * @file
 * SweepScheduler tests: Welford/merge math against direct computation,
 * seed-list derivation, cost-aware chunking, EngineRun::reset()
 * bit-identity with a fresh engine, thread-count and submission-order
 * independence of the streaming aggregates, trace-cache and
 * engine-reuse accounting, and process-metrics series reclaim.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/pricing.hpp"
#include "cloud/provider_profile.hpp"
#include "core/engine_run.hpp"
#include "core/strategy.hpp"
#include "exp/sweep.hpp"
#include "obs/process_metrics.hpp"
#include "profiling/quasar.hpp"
#include "workload/archetypes.hpp"
#include "workload/scenario.hpp"

namespace hcloud {
namespace {

TEST(Welford, MatchesDirectMeanAndVariance)
{
    const std::vector<double> xs = {3.0, 1.5, -2.0, 8.25, 4.0, 4.0, 0.5};
    exp::Welford acc;
    for (double x : xs)
        acc.add(x);
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= double(xs.size());
    double m2 = 0.0;
    for (double x : xs)
        m2 += (x - mean) * (x - mean);
    const double variance = m2 / double(xs.size() - 1);
    EXPECT_EQ(acc.n, xs.size());
    EXPECT_NEAR(acc.mean, mean, 1e-12);
    EXPECT_NEAR(acc.variance(), variance, 1e-12);
    EXPECT_NEAR(acc.stddev(), std::sqrt(variance), 1e-12);
    EXPECT_NEAR(acc.ci95(),
                1.96 * std::sqrt(variance) / std::sqrt(double(xs.size())),
                1e-12);
}

TEST(Welford, BelowTwoSamplesHasZeroSpread)
{
    exp::Welford acc;
    EXPECT_EQ(acc.variance(), 0.0);
    EXPECT_EQ(acc.ci95(), 0.0);
    acc.add(7.5);
    EXPECT_EQ(acc.mean, 7.5);
    EXPECT_EQ(acc.variance(), 0.0);
    EXPECT_EQ(acc.ci95(), 0.0);
}

TEST(Welford, MergeEqualsSequentialFold)
{
    const std::vector<double> xs = {0.25, 9.0, -1.0, 3.5, 3.5, 12.0};
    for (std::size_t split = 0; split <= xs.size(); ++split) {
        exp::Welford left;
        exp::Welford right;
        exp::Welford sequential;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            (i < split ? left : right).add(xs[i]);
            sequential.add(xs[i]);
        }
        left.merge(right);
        EXPECT_EQ(left.n, sequential.n) << "split " << split;
        EXPECT_NEAR(left.mean, sequential.mean, 1e-12);
        EXPECT_NEAR(left.m2, sequential.m2, 1e-9);
    }
}

TEST(SweepSeeds, DerivationIsDeterministicDistinctAndPrefixStable)
{
    const std::vector<std::uint64_t> five = exp::deriveSeedList(42, 5);
    const std::vector<std::uint64_t> again = exp::deriveSeedList(42, 5);
    const std::vector<std::uint64_t> ten = exp::deriveSeedList(42, 10);
    ASSERT_EQ(five.size(), 5u);
    EXPECT_EQ(five, again);
    // Growing the seed count extends the list without moving earlier
    // seeds, so a 10-seed rerun reuses the 5-seed results.
    ASSERT_EQ(ten.size(), 10u);
    EXPECT_TRUE(std::equal(five.begin(), five.end(), ten.begin()));
    EXPECT_EQ(std::set<std::uint64_t>(ten.begin(), ten.end()).size(),
              10u);
    // Different bases give different lists.
    EXPECT_NE(exp::deriveSeedList(43, 5), five);
}

TEST(SweepChunks, CoverEveryIndexInOrderWithinBound)
{
    for (std::size_t n : {1u, 2u, 7u, 16u, 61u}) {
        for (std::size_t target : {1u, 2u, 4u, 9u, 100u}) {
            std::vector<double> weights(n, 1.0);
            for (std::size_t i = 0; i < n; ++i)
                weights[i] = 1.0 + double(i % 3);
            const auto chunks = exp::costAwareChunks(weights, target);
            ASSERT_FALSE(chunks.empty());
            EXPECT_LE(chunks.size(), target);
            std::size_t expectLo = 0;
            for (const auto& [lo, hi] : chunks) {
                EXPECT_EQ(lo, expectLo);
                EXPECT_LT(lo, hi);
                expectLo = hi;
            }
            EXPECT_EQ(expectLo, n);
        }
    }
    EXPECT_TRUE(exp::costAwareChunks({}, 4).empty());
}

TEST(SweepChunks, WeightsSteerTheSplit)
{
    // One heavy task up front: with equal weights a 2-way split of four
    // tasks is 2+2; weighting task 0 at 3x moves the boundary to 1+3.
    const auto even = exp::costAwareChunks({1.0, 1.0, 1.0, 1.0}, 2);
    ASSERT_EQ(even.size(), 2u);
    EXPECT_EQ(even[0].second, 2u);
    const auto skewed = exp::costAwareChunks({3.0, 1.0, 1.0, 1.0}, 2);
    ASSERT_EQ(skewed.size(), 2u);
    EXPECT_EQ(skewed[0].second, 1u);
}

/** Short scenario so an engine run costs milliseconds, not seconds. */
workload::ScenarioConfig
tinyScenario(workload::ScenarioKind kind, std::uint64_t seed)
{
    workload::ScenarioConfig cfg;
    cfg.kind = kind;
    cfg.duration = sim::hours(0.2);
    cfg.seed = seed;
    return cfg;
}

/** Numeric spine of a RunResult (exact comparison => bit-identity). */
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
        static_cast<double>(r.reschedules),
        static_cast<double>(r.queuedJobs),
        cost.reserved,
        cost.onDemand,
        static_cast<double>(r.trace.recorded),
        static_cast<double>(r.telemetry.eventsProcessed),
    };
    for (const sim::SampleSet* ss :
         {&r.batchTurnaroundMin, &r.batchPerfNorm, &r.lcLatencyUs,
          &r.lcPerfNorm}) {
        d.push_back(static_cast<double>(ss->count()));
        if (!ss->empty()) {
            d.push_back(ss->mean());
            d.push_back(ss->quantile(0.95));
        }
    }
    return d;
}

core::EngineRun::StrategyFactory
factoryFor(core::StrategyKind kind)
{
    return [kind](core::EngineContext& ctx) {
        return core::makeStrategy(kind, ctx);
    };
}

TEST(EngineRunReset, ResetRunIsBitIdenticalToFreshEngine)
{
    const cloud::ProviderProfile profile = cloud::ProviderProfile::gce();
    const workload::ArrivalTrace warmupTrace = workload::generateScenario(
        tinyScenario(workload::ScenarioKind::HighVariability, 7));
    const workload::ArrivalTrace trace = workload::generateScenario(
        tinyScenario(workload::ScenarioKind::LowVariability, 1234));

    core::EngineConfig warmupCfg;
    warmupCfg.seed = 7;
    core::EngineConfig cfg;
    cfg.seed = 1234;

    // Dirty an engine with a different scenario/strategy/seed, then
    // reset it into the target configuration...
    core::EngineRun reused(warmupCfg, profile,
                           factoryFor(core::StrategyKind::HM));
    (void)reused.runBatch(warmupTrace, "warmup");
    reused.reset(cfg, profile, factoryFor(core::StrategyKind::OdF));
    const core::RunResult viaReset = reused.runBatch(trace, "target");

    // ...and the result must match a from-scratch engine exactly.
    core::EngineRun fresh(cfg, profile,
                          factoryFor(core::StrategyKind::OdF));
    const core::RunResult direct = fresh.runBatch(trace, "target");

    const std::vector<double> a = digest(viaReset);
    const std::vector<double> b = digest(direct);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "digest[" << i << "]";
    ASSERT_EQ(viaReset.trace.records.size(), direct.trace.records.size());
}

TEST(EngineRunReset, BackToBackResetsStayIdentical)
{
    const cloud::ProviderProfile profile = cloud::ProviderProfile::gce();
    const workload::ArrivalTrace trace = workload::generateScenario(
        tinyScenario(workload::ScenarioKind::Static, 99));
    core::EngineConfig cfg;
    cfg.seed = 99;

    core::EngineRun engine(cfg, profile,
                           factoryFor(core::StrategyKind::HF));
    const std::vector<double> first =
        digest(engine.runBatch(trace, "s"));
    for (int round = 0; round < 3; ++round) {
        engine.reset(cfg, profile, factoryFor(core::StrategyKind::HF));
        const std::vector<double> again =
            digest(engine.runBatch(trace, "s"));
        ASSERT_EQ(first.size(), again.size());
        for (std::size_t i = 0; i < first.size(); ++i)
            EXPECT_EQ(first[i], again[i])
                << "round " << round << " digest[" << i << "]";
    }
}

// reset() keeps the bootstrapped classifier when the classifier config is
// unchanged; its trained state must be indistinguishable from a fresh
// bootstrap, or reused engines would classify differently than fresh ones.
TEST(QuasarReset, KeptClassifierMatchesFreshBootstrap)
{
    workload::JobSpec spec;
    spec.kind = workload::AppKind::Memcached;
    spec.coresIdeal = 4.0;
    spec.memoryPerCore = 2.0;
    sim::Rng specRng = sim::Rng(99).child("spec");
    spec.sensitivity = workload::generateSensitivity(spec.kind, specRng);

    profiling::QuasarConfig cfg;
    cfg.seed = 5;

    profiling::Quasar fresh(cfg);
    const profiling::Estimate want = fresh.estimate(spec);

    // Dirty a Quasar under a different run seed, then reset it into the
    // same config the fresh one was built with.
    profiling::QuasarConfig other = cfg;
    other.seed = 77;
    profiling::Quasar reused(other);
    (void)reused.estimate(spec);
    reused.reset(cfg);
    EXPECT_EQ(reused.cacheSize(), 0u);
    EXPECT_EQ(reused.classifications(), 0u);
    const profiling::Estimate got = reused.estimate(spec);

    EXPECT_EQ(got.quality, want.quality);
    EXPECT_EQ(got.cores, want.cores);
    EXPECT_EQ(got.memoryPerCore, want.memoryPerCore);
    EXPECT_EQ(got.sensitivityScalar, want.sensitivityScalar);
    EXPECT_EQ(got.pressure, want.pressure);
    for (std::size_t i = 0; i < workload::kNumResources; ++i)
        EXPECT_EQ(got.sensitivity[i], want.sensitivity[i]) << i;
}

/** A small cells x strategies grid over short scenarios. */
std::vector<exp::SweepCell>
tinyGrid()
{
    std::vector<exp::SweepCell> cells;
    for (core::StrategyKind strategy :
         {core::StrategyKind::SR, core::StrategyKind::HM}) {
        for (workload::ScenarioKind scenario :
             {workload::ScenarioKind::Static,
              workload::ScenarioKind::HighVariability}) {
            exp::SweepCell cell;
            cell.scenario = scenario;
            cell.strategy = strategy;
            cell.scenarioOverride = tinyScenario(scenario, 0);
            cell.costWeight =
                scenario == workload::ScenarioKind::HighVariability
                ? 1.5
                : 1.0;
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

exp::SweepOptions
tinyOptions(std::size_t threads)
{
    exp::SweepOptions options;
    options.title = "tiny";
    options.seeds = 3;
    options.baseSeed = 42;
    options.threads = threads;
    return options;
}

TEST(SweepScheduler, AggregatesAreByteIdenticalAcrossThreadCounts)
{
    const std::vector<exp::SweepCell> grid = tinyGrid();
    const exp::SweepResult serial = exp::runSweep(grid, tinyOptions(1));
    const exp::SweepResult pooled = exp::runSweep(grid, tinyOptions(4));
    EXPECT_EQ(serial.telemetry.threads, 1u);
    EXPECT_EQ(pooled.telemetry.threads, 4u);
    EXPECT_EQ(exp::sweepCellsJson(serial), exp::sweepCellsJson(pooled));
}

TEST(SweepScheduler, AggregatesIndependentOfCellSubmissionOrder)
{
    std::vector<exp::SweepCell> grid = tinyGrid();
    const exp::SweepResult forward = exp::runSweep(grid, tinyOptions(2));
    std::reverse(grid.begin(), grid.end());
    const exp::SweepResult reversed =
        exp::runSweep(grid, tinyOptions(2));
    ASSERT_EQ(forward.cells.size(), reversed.cells.size());
    for (const exp::SweepCellAggregate& cell : forward.cells) {
        const auto it = std::find_if(
            reversed.cells.begin(), reversed.cells.end(),
            [&](const exp::SweepCellAggregate& other) {
                return other.label == cell.label;
            });
        ASSERT_NE(it, reversed.cells.end()) << cell.label;
        EXPECT_EQ(cell.cost.mean, it->cost.mean) << cell.label;
        EXPECT_EQ(cell.cost.m2, it->cost.m2) << cell.label;
        EXPECT_EQ(cell.utilization.mean, it->utilization.mean);
        EXPECT_EQ(cell.qualityP95.mean, it->qualityP95.mean);
        EXPECT_EQ(cell.qosViolations.mean, it->qosViolations.mean);
        EXPECT_EQ(cell.makespan.mean, it->makespan.mean);
        EXPECT_EQ(cell.eventsProcessed, it->eventsProcessed);
    }
}

TEST(SweepScheduler, AggregatesMatchDirectEngineRuns)
{
    // One cell, two seeds: the sweep's streaming aggregates must equal a
    // hand-rolled reduction of the same two engine runs.
    exp::SweepCell cell;
    cell.scenario = workload::ScenarioKind::LowVariability;
    cell.strategy = core::StrategyKind::HM;
    cell.scenarioOverride =
        tinyScenario(workload::ScenarioKind::LowVariability, 0);

    exp::SweepOptions options = tinyOptions(1);
    options.seeds = 2;
    const exp::SweepResult sweep = exp::runSweep({cell}, options);
    ASSERT_EQ(sweep.cells.size(), 1u);
    ASSERT_EQ(sweep.seedList.size(), 2u);

    const cloud::ProviderProfile profile = cloud::ProviderProfile::gce();
    const cloud::AwsStylePricing pricing;
    exp::Welford cost;
    exp::Welford utilization;
    exp::Welford qualityP95;
    for (std::uint64_t seed : sweep.seedList) {
        workload::ScenarioConfig scenario = *cell.scenarioOverride;
        scenario.loadScale = options.loadScale;
        scenario.seed = seed;
        core::EngineConfig cfg = cell.config;
        cfg.seed = seed;
        core::EngineRun engine(cfg, profile,
                               factoryFor(cell.strategy));
        const core::RunResult r = engine.runBatch(
            workload::generateScenario(scenario),
            sweep.cells[0].label);
        cost.add(r.cost(pricing).total());
        utilization.add(r.reservedUtilizationAvg);
        sim::SampleSet perf = r.batchPerfNorm;
        perf.merge(r.lcPerfNorm);
        qualityP95.add(perf.quantile(0.95));
    }
    EXPECT_EQ(sweep.cells[0].cost.n, 2u);
    EXPECT_EQ(sweep.cells[0].cost.mean, cost.mean);
    EXPECT_EQ(sweep.cells[0].cost.m2, cost.m2);
    EXPECT_EQ(sweep.cells[0].utilization.mean, utilization.mean);
    EXPECT_EQ(sweep.cells[0].qualityP95.mean, qualityP95.mean);
}

TEST(SweepScheduler, TraceCacheSharesAcrossStrategiesOfOneScenario)
{
    // 5 strategies x 1 scenario x 2 seeds: the trace depends only on
    // (scenario, seed), so exactly 2 generations and 8 cache hits.
    std::vector<exp::SweepCell> cells;
    for (core::StrategyKind strategy : core::kAllStrategies) {
        exp::SweepCell cell;
        cell.scenario = workload::ScenarioKind::Static;
        cell.strategy = strategy;
        cell.scenarioOverride =
            tinyScenario(workload::ScenarioKind::Static, 0);
        cells.push_back(std::move(cell));
    }
    exp::SweepOptions options = tinyOptions(1);
    options.seeds = 2;
    const exp::SweepResult sweep = exp::runSweep(cells, options);
    EXPECT_EQ(sweep.telemetry.runs, 10u);
    EXPECT_EQ(sweep.telemetry.traceCacheMisses, 2u);
    EXPECT_EQ(sweep.telemetry.traceCacheHits, 8u);
    // One worker => one engine constructed, every later run a reset.
    EXPECT_EQ(sweep.telemetry.enginesCreated, 1u);
    EXPECT_EQ(sweep.telemetry.engineResets, 9u);
    // Serial execution folds every record the moment it lands.
    EXPECT_LE(sweep.telemetry.maxBufferedRuns, 1u);
    EXPECT_GT(sweep.telemetry.eventsProcessed, 0u);
    EXPECT_GT(sweep.telemetry.eventsPerSec, 0.0);
}

TEST(SweepScheduler, ProgressGaugeSeriesIsReclaimed)
{
    obs::ProcessMetrics& pm = obs::ProcessMetrics::instance();
    // Warm up so the sweep's (and pool's) persistent counter families
    // exist, then assert a further sweep leaves no series behind.
    (void)exp::runSweep(tinyGrid(), tinyOptions(2));
    const std::size_t before = pm.seriesCount();
    (void)exp::runSweep(tinyGrid(), tinyOptions(2));
    EXPECT_EQ(pm.seriesCount(), before);
    // The per-title progress gauge is gone from the exposition page.
    for (const obs::ProcessMetrics::FamilySample& family : pm.snapshot()) {
        if (family.name == "hcloud_sweep_tasks_remaining")
            EXPECT_TRUE(family.series.empty());
    }
}

TEST(SweepScheduler, FigureGridsHaveExpectedShape)
{
    const core::EngineConfig base;
    EXPECT_EQ(exp::fig12SweepGrid(base).size(), 15u);
    EXPECT_EQ(exp::fig15SweepGrid(base).size(), 6u);
    EXPECT_EQ(exp::fig16SweepGrid(base).size(), 6u);
    // fig16 varies the sensitive fraction through scenario overrides.
    for (const exp::SweepCell& cell : exp::fig16SweepGrid(base))
        EXPECT_TRUE(cell.scenarioOverride.has_value());
    // Scenario digests separate seeds and sensitive fractions.
    workload::ScenarioConfig a;
    workload::ScenarioConfig b = a;
    EXPECT_EQ(workload::digest(a), workload::digest(b));
    b.seed = a.seed + 1;
    EXPECT_NE(workload::digest(a), workload::digest(b));
    b = a;
    b.sensitiveFraction = 0.5;
    EXPECT_NE(workload::digest(a), workload::digest(b));
}

/**
 * Byte-exact golden for the figure sweep grids: every strategy under
 * every scenario (the Figure 12 grid) plus the Figure 15 retention
 * grid, two derived seeds each at a small load scale. GoldenTrace pins
 * one Static/HM run event by event; this pins the reduced cell
 * aggregates of all 21 cells, so a change to the per-tick quality,
 * interference, QoS or retention model that moves any figure number
 * fails here. Regenerate with HCLOUD_UPDATE_GOLDEN=1 only when a change
 * is *supposed* to alter simulated behaviour, and say so in the commit.
 */
TEST(GoldenSweep, FigureGridsAreByteStable)
{
    const core::EngineConfig base;
    exp::SweepOptions options;
    options.seeds = 2;
    options.loadScale = 0.1;
    options.threads = 2;
    options.title = "golden-fig12";
    const std::string fig12 =
        exp::sweepCellsJson(exp::runSweep(exp::fig12SweepGrid(base), options));
    options.title = "golden-fig15";
    const std::string fig15 =
        exp::sweepCellsJson(exp::runSweep(exp::fig15SweepGrid(base), options));
    const std::string text =
        "{\"fig12\":" + fig12 + ",\n\"fig15\":" + fig15 + "}\n";

    const std::string golden_path =
        std::string(HCLOUD_GOLDEN_DIR) + "/sweep_small.json";
    if (std::getenv("HCLOUD_UPDATE_GOLDEN")) {
        std::ofstream golden_out(golden_path,
                                 std::ios::binary | std::ios::trunc);
        golden_out << text;
        ASSERT_TRUE(golden_out) << "cannot update " << golden_path;
        GTEST_SKIP() << "golden file regenerated: " << golden_path;
    }
    std::ifstream golden_in(golden_path, std::ios::binary);
    ASSERT_TRUE(golden_in)
        << golden_path
        << " missing; regenerate with HCLOUD_UPDATE_GOLDEN=1";
    std::stringstream golden_text;
    golden_text << golden_in.rdbuf();
    EXPECT_EQ(text, golden_text.str())
        << "sweep aggregates changed: simulated behaviour diverged";
}

} // namespace
} // namespace hcloud
