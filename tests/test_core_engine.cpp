/**
 * @file
 * Engine tests: end-to-end runs of each strategy on a reduced-scale
 * scenario, lifecycle invariants, determinism, and configuration knobs.
 */

#include <gtest/gtest.h>

#include "cloud/pricing.hpp"
#include "core/engine.hpp"
#include "workload/scenario.hpp"

namespace hcloud::core {
namespace {

workload::ArrivalTrace
smallTrace(workload::ScenarioKind kind =
               workload::ScenarioKind::HighVariability,
           double scale = 0.15, std::uint64_t seed = 42)
{
    workload::ScenarioConfig cfg;
    cfg.kind = kind;
    cfg.seed = seed;
    cfg.loadScale = scale;
    return workload::generateScenario(cfg);
}

/** End-to-end lifecycle invariants must hold for every strategy. */
class EngineStrategySweep : public ::testing::TestWithParam<StrategyKind>
{
};

TEST_P(EngineStrategySweep, RunsToCompletion)
{
    const workload::ArrivalTrace trace = smallTrace();
    EngineConfig config;
    config.seed = 7;
    Engine engine(config);
    const RunResult r = engine.run(trace, GetParam(), "test");

    EXPECT_EQ(r.jobCount, trace.jobs().size());
    EXPECT_EQ(r.failedJobs, 0u);
    // The scenario's ideal length is ~2h; anything sane finishes < 4h.
    EXPECT_GT(r.makespan, sim::hours(1.5));
    EXPECT_LT(r.makespan, sim::hours(4.0));
    EXPECT_GT(r.batchPerfNorm.count(), 0u);
    EXPECT_GT(r.lcPerfNorm.count(), 0u);
    // Normalized performance is a fraction.
    EXPECT_LE(r.batchPerfNorm.max(), 1.0);
    EXPECT_GT(r.meanPerfNorm(), 0.2);
    // Cost is positive under any model.
    const cloud::AwsStylePricing pricing;
    EXPECT_GT(r.cost(pricing).total(), 0.0);
}

TEST_P(EngineStrategySweep, DeterministicGivenSeed)
{
    const workload::ArrivalTrace trace = smallTrace(
        workload::ScenarioKind::Static, 0.1);
    EngineConfig config;
    config.seed = 11;
    const RunResult a = Engine(config).run(trace, GetParam(), "a");
    const RunResult b = Engine(config).run(trace, GetParam(), "b");
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.meanPerfNorm(), b.meanPerfNorm());
    EXPECT_EQ(a.acquisitions, b.acquisitions);
    const cloud::AwsStylePricing pricing;
    EXPECT_DOUBLE_EQ(a.cost(pricing).total(), b.cost(pricing).total());
}

INSTANTIATE_TEST_SUITE_P(Strategies, EngineStrategySweep,
                         ::testing::Values(StrategyKind::SR,
                                           StrategyKind::OdF,
                                           StrategyKind::OdM,
                                           StrategyKind::HF,
                                           StrategyKind::HM));

TEST(Engine, SrSizesForPeakAndNeverBuysOnDemand)
{
    const workload::ArrivalTrace trace = smallTrace();
    EngineConfig config;
    Engine engine(config);
    const RunResult r = engine.run(trace, StrategyKind::SR, "sr");
    EXPECT_EQ(r.acquisitions, 0u);
    EXPECT_GT(r.billing.reservedCount(), 0);
    // Pool covers the peak plus overprovisioning.
    const double pool_cores = r.billing.reservedCount() * 16.0;
    EXPECT_GE(pool_cores, trace.stats().maxCores);
    EXPECT_DOUBLE_EQ(r.cost(cloud::AwsStylePricing()).onDemand, 0.0);
}

TEST(Engine, OnDemandStrategiesHaveNoReservedPool)
{
    const workload::ArrivalTrace trace = smallTrace();
    EngineConfig config;
    for (StrategyKind kind : {StrategyKind::OdF, StrategyKind::OdM}) {
        const RunResult r = Engine(config).run(trace, kind, "od");
        EXPECT_EQ(r.billing.reservedCount(), 0);
        EXPECT_GT(r.acquisitions, 0u);
    }
}

TEST(Engine, HybridPoolSizedForMinimumLoad)
{
    const workload::ArrivalTrace trace = smallTrace();
    EngineConfig config;
    const RunResult r = Engine(config).run(trace, StrategyKind::HF, "hf");
    const double pool_cores = r.billing.reservedCount() * 16.0;
    EXPECT_GE(pool_cores, trace.stats().minCores - 16.0);
    EXPECT_LT(pool_cores, trace.stats().maxCores);
    EXPECT_GT(r.acquisitions, 0u);
    EXPECT_FALSE(r.softLimitHistory.empty());
    EXPECT_GT(r.reservedUtilizationAvg, 0.3);
}

TEST(Engine, OdFUsesOnlyFullServers)
{
    const workload::ArrivalTrace trace = smallTrace();
    EngineConfig config;
    const RunResult r = Engine(config).run(trace, StrategyKind::OdF, "f");
    for (const auto& [id, tl] : r.instanceTimelines)
        EXPECT_EQ(tl.type, "st16");
}

TEST(Engine, OdMUsesMixedSizes)
{
    const workload::ArrivalTrace trace = smallTrace();
    EngineConfig config;
    const RunResult r = Engine(config).run(trace, StrategyKind::OdM, "m");
    bool saw_small = false;
    for (const auto& [id, tl] : r.instanceTimelines)
        saw_small |= tl.type != "st16" && tl.type != "m16";
    EXPECT_TRUE(saw_small);
}

TEST(Engine, ZeroSpinUpRemovesWaits)
{
    const workload::ArrivalTrace trace = smallTrace();
    EngineConfig config;
    config.spinUpFixed = 0.0;
    const RunResult r = Engine(config).run(trace, StrategyKind::OdF, "z");
    EXPECT_DOUBLE_EQ(r.spinUpWaits.max(), 0.0);
}

TEST(Engine, ProfilingOffStillCompletesButSlower)
{
    const workload::ArrivalTrace trace =
        smallTrace(workload::ScenarioKind::Static, 0.1);
    EngineConfig with;
    EngineConfig without;
    without.useProfiling = false;
    const RunResult a = Engine(with).run(trace, StrategyKind::SR, "p");
    const RunResult b = Engine(without).run(trace, StrategyKind::SR, "n");
    EXPECT_EQ(b.failedJobs, 0u);
    EXPECT_GT(a.meanPerfNorm(), b.meanPerfNorm())
        << "profiling information must improve performance";
}

TEST(Engine, BillingMatchesAcquisitionCount)
{
    const workload::ArrivalTrace trace = smallTrace();
    EngineConfig config;
    const RunResult r = Engine(config).run(trace, StrategyKind::HM, "b");
    EXPECT_EQ(r.billing.onDemandAcquisitions(), r.acquisitions);
}

TEST(Engine, AllocationSeriesRecorded)
{
    const workload::ArrivalTrace trace = smallTrace();
    EngineConfig config;
    const RunResult r = Engine(config).run(trace, StrategyKind::HF, "s");
    EXPECT_FALSE(r.reservedAllocated.empty());
    EXPECT_FALSE(r.onDemandAllocated.empty());
    EXPECT_FALSE(r.reservedUtilization.empty());
    EXPECT_FALSE(r.instanceTimelines.empty());
    EXPECT_FALSE(r.breakdown.empty());
    // Reserved capacity is flat at the pool size.
    const double cap0 = r.reservedAllocated.at(100.0);
    const double cap1 = r.reservedAllocated.at(r.makespan / 2.0);
    EXPECT_DOUBLE_EQ(cap0, cap1);
}

TEST(Engine, OutcomesCoverEveryJob)
{
    const workload::ArrivalTrace trace = smallTrace();
    EngineConfig config;
    const RunResult r = Engine(config).run(trace, StrategyKind::HM, "o");
    EXPECT_EQ(r.outcomes.size(), trace.jobs().size());
}

/**
 * The exact event count of a fixed-seed run is part of the determinism
 * contract: a kernel or caching change that schedules one extra event
 * (or drops one) changes simulated behaviour even if the aggregates
 * happen to match. Update the pinned value only alongside a deliberate
 * behaviour change, and say so in the commit.
 */
TEST(Engine, EventsProcessedPinnedForFixedSeed)
{
    const workload::ArrivalTrace trace =
        smallTrace(workload::ScenarioKind::Static, 0.1);
    EngineConfig config;
    config.seed = 11;
    const RunResult r = Engine(config).run(trace, StrategyKind::HM, "pin");
    EXPECT_EQ(r.telemetry.eventsProcessed, 8265u);
}

/**
 * No scheduled callback may spill to the heap: the event-queue inline
 * buffer is sized for the engine's largest capture, and this pin makes
 * capture growth fail loudly instead of silently reintroducing
 * per-event allocations.
 */
TEST(Engine, EventCallbacksStayInline)
{
    const workload::ArrivalTrace trace = smallTrace();
    EngineConfig config;
    config.seed = 7;
    for (StrategyKind kind :
         {StrategyKind::SR, StrategyKind::OdF, StrategyKind::OdM,
          StrategyKind::HF, StrategyKind::HM}) {
        const RunResult r = Engine(config).run(trace, kind, "inline");
        EXPECT_EQ(r.telemetry.callbackHeapAllocs, 0u)
            << "a scheduling capture outgrew kEventCallbackCapacity for "
            << toString(kind);
    }
}

} // namespace
} // namespace hcloud::core
