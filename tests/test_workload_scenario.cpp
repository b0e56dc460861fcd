/**
 * @file
 * Tests for scenario generation: Table 2 statistics, Figure 3 curves,
 * determinism, and the Figure 16 sensitivity override.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "workload/latency_model.hpp"
#include "workload/scenario.hpp"

namespace hcloud::workload {
namespace {

ArrivalTrace
makeTrace(ScenarioKind kind, std::uint64_t seed = 42,
          double sensitiveFraction = -1.0)
{
    ScenarioConfig cfg;
    cfg.kind = kind;
    cfg.seed = seed;
    cfg.sensitiveFraction = sensitiveFraction;
    return generateScenario(cfg);
}

TEST(TargetCurves, StaticRippleWithinTenPercent)
{
    double lo = 1e18;
    double hi = 0.0;
    for (double t = 0.0; t <= 7200.0; t += 30.0) {
        const double v = targetLoad(ScenarioKind::Static, t);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_NEAR(hi / lo, 1.1, 0.02);
    EXPECT_NEAR(targetLoad(ScenarioKind::Static, 0.0), 854.0, 1.0);
}

TEST(TargetCurves, LowVariabilityPeaksNear900)
{
    double hi = 0.0;
    for (double t = 0.0; t <= 7200.0; t += 30.0)
        hi = std::max(hi, targetLoad(ScenarioKind::LowVariability, t));
    EXPECT_NEAR(hi, 900.0, 10.0);
    EXPECT_NEAR(targetLoad(ScenarioKind::LowVariability, 0.0), 605.0,
                10.0);
}

TEST(TargetCurves, HighVariabilityPeaksNear1226)
{
    double hi = 0.0;
    double lo = 1e18;
    for (double t = 0.0; t <= 7200.0; t += 10.0) {
        const double v = targetLoad(ScenarioKind::HighVariability, t);
        hi = std::max(hi, v);
        lo = std::min(lo, v);
    }
    EXPECT_NEAR(hi, 1226.0, 30.0);
    EXPECT_NEAR(lo, 200.0, 25.0);
}

TEST(TargetCurves, ClassSplitsSumToTotal)
{
    for (ScenarioKind kind : kAllScenarios) {
        for (double t = 0.0; t <= 7200.0; t += 600.0) {
            EXPECT_NEAR(targetBatchLoad(kind, t) + targetLcLoad(kind, t),
                        targetLoad(kind, t), 1e-9);
        }
    }
}

TEST(TargetCurves, LowVarSurgeIsMostlyLatencyCritical)
{
    const double lc_rise =
        targetLcLoad(ScenarioKind::LowVariability, 3600.0) -
        targetLcLoad(ScenarioKind::LowVariability, 0.0);
    const double batch_rise =
        targetBatchLoad(ScenarioKind::LowVariability, 3600.0) -
        targetBatchLoad(ScenarioKind::LowVariability, 0.0);
    EXPECT_GT(lc_rise, 2.0 * batch_rise);
}

TEST(Scenario, DeterministicGivenSeed)
{
    const ArrivalTrace a = makeTrace(ScenarioKind::HighVariability, 7);
    const ArrivalTrace b = makeTrace(ScenarioKind::HighVariability, 7);
    ASSERT_EQ(a.jobs().size(), b.jobs().size());
    for (std::size_t i = 0; i < a.jobs().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.jobs()[i].arrival, b.jobs()[i].arrival);
        EXPECT_DOUBLE_EQ(a.jobs()[i].coresIdeal, b.jobs()[i].coresIdeal);
        EXPECT_EQ(a.jobs()[i].kind, b.jobs()[i].kind);
    }
    const ArrivalTrace c = makeTrace(ScenarioKind::HighVariability, 8);
    EXPECT_NE(a.jobs().size(), c.jobs().size());
}

TEST(Scenario, ArrivalsSortedAndWithinHorizon)
{
    const ArrivalTrace trace = makeTrace(ScenarioKind::Static);
    double prev = 0.0;
    for (const JobSpec& j : trace.jobs()) {
        EXPECT_GE(j.arrival, prev);
        prev = j.arrival;
        EXPECT_LE(j.arrival, 7200.0);
    }
    EXPECT_LE(trace.horizon(), 7200.0 + 1.0);
}

/** Table 2 fidelity, parameterized over the three scenarios. */
struct Table2Row
{
    ScenarioKind kind;
    double maxMinRatio;
    double ratioTolerance;
    double jobRatio;
    double jobRatioTolerance;
};

/** Names each case by its scenario; gtest's default byte dump would
 *  include the padding after `kind`, which is not initialised. */
void
PrintTo(const Table2Row& row, std::ostream* os)
{
    *os << toString(row.kind);
}

class Table2Fidelity : public ::testing::TestWithParam<Table2Row>
{
};

TEST_P(Table2Fidelity, MatchesPaperBands)
{
    const Table2Row row = GetParam();
    const TraceStats s = makeTrace(row.kind).stats();
    EXPECT_NEAR(s.maxMinCoreRatio, row.maxMinRatio, row.ratioTolerance);
    EXPECT_NEAR(s.batchLcJobRatio, row.jobRatio, row.jobRatioTolerance);
    // Inter-arrival close to the paper's 1 second.
    EXPECT_GT(s.meanInterArrival, 0.7);
    EXPECT_LT(s.meanInterArrival, 1.8);
    // Ideal completion ~2 hours.
    EXPECT_NEAR(s.idealCompletion, 7200.0, 600.0);
    // Batch delivers more aggregate core demand than LC but same order.
    EXPECT_GT(s.batchLcCoreRatio, 0.6);
    EXPECT_LT(s.batchLcCoreRatio, 2.5);
    EXPECT_GT(s.jobCount, 2000u);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, Table2Fidelity,
    ::testing::Values(
        Table2Row{ScenarioKind::Static, 1.1, 0.15, 4.2, 1.2},
        Table2Row{ScenarioKind::LowVariability, 1.5, 0.25, 3.6, 1.2},
        Table2Row{ScenarioKind::HighVariability, 6.2, 1.5, 4.1, 2.5}));

TEST(Scenario, HighVarJobsShorterThanStatic)
{
    const TraceStats high =
        makeTrace(ScenarioKind::HighVariability).stats();
    EXPECT_LT(high.meanJobDuration, 12.0 * 60.0);
    EXPECT_GT(high.meanJobDuration, 3.0 * 60.0);
}

TEST(Scenario, SensitiveFractionOverride)
{
    auto sensitive_share = [](const ArrivalTrace& trace) {
        std::size_t sensitive = 0;
        for (const JobSpec& j : trace.jobs()) {
            sensitive += j.kind == AppKind::Memcached ||
                j.kind == AppKind::SparkRealtime;
        }
        return static_cast<double>(sensitive) /
            static_cast<double>(trace.jobs().size());
    };
    const double none =
        sensitive_share(makeTrace(ScenarioKind::HighVariability, 42, 0.0));
    const double all =
        sensitive_share(makeTrace(ScenarioKind::HighVariability, 42, 1.0));
    EXPECT_LT(none, 0.05);
    EXPECT_GT(all, 0.60); // trickle filler keeps a small tolerant share
}

TEST(Scenario, LcSpecsWellFormed)
{
    const ArrivalTrace trace = makeTrace(ScenarioKind::LowVariability);
    for (const JobSpec& j : trace.jobs()) {
        if (j.jobClass() != JobClass::LatencyCritical)
            continue;
        EXPECT_GE(j.coresIdeal, 4.0);
        EXPECT_GT(j.lcLoadRps, 0.0);
        EXPECT_GT(j.lcQosUs, 0.0);
        EXPECT_GT(j.lcLifetime, 0.0);
        // Load sized for ~50% utilization at the ideal allocation.
        EXPECT_NEAR(j.lcLoadRps /
                        (j.coresIdeal * latency_model::kRpsPerCore),
                    0.5, 1e-9);
    }
}

TEST(Scenario, EveryJobEndsByTheScenarioEnd)
{
    // Durations are floored (60 s batch, 120 s LC) but capped at the time
    // left, so a job arriving in the last minutes ends with the scenario.
    for (ScenarioKind kind : kAllScenarios) {
        ScenarioConfig cfg;
        cfg.kind = kind;
        const ArrivalTrace trace = generateScenario(cfg);
        for (const JobSpec& j : trace.jobs()) {
            const double length = j.jobClass() == JobClass::Batch
                ? j.idealDuration
                : j.lcLifetime;
            EXPECT_LE(length, cfg.duration - j.arrival)
                << toString(kind) << " job " << j.id;
        }
    }
}

TEST(Scenario, LoadScaleShrinksDemand)
{
    ScenarioConfig cfg;
    cfg.kind = ScenarioKind::Static;
    cfg.loadScale = 0.5;
    const TraceStats half = generateScenario(cfg).stats();
    const TraceStats full = makeTrace(ScenarioKind::Static).stats();
    EXPECT_NEAR(half.maxCores / full.maxCores, 0.5, 0.1);
}

} // namespace
} // namespace hcloud::workload
