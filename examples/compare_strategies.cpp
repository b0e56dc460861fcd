/**
 * @file
 * Compare all five provisioning strategies on one scenario.
 *
 * Usage: compare_strategies [static|low|high] [loadScale] [--no-profiling]
 *
 * Prints per-strategy performance (batch completion, LC tail latency),
 * normalized performance, cost under AWS-style pricing, reserved
 * utilization, and acquisition counters — the at-a-glance view behind
 * Figures 4, 5, 10 and 11 of the paper.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "cloud/pricing.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

int
main(int argc, char** argv)
{
    using namespace hcloud;

    workload::ScenarioKind kind = workload::ScenarioKind::HighVariability;
    double load_scale = 1.0;
    bool profiling = true;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "static")) {
            kind = workload::ScenarioKind::Static;
        } else if (!std::strcmp(argv[i], "low")) {
            kind = workload::ScenarioKind::LowVariability;
        } else if (!std::strcmp(argv[i], "high")) {
            kind = workload::ScenarioKind::HighVariability;
        } else if (!std::strcmp(argv[i], "--no-profiling")) {
            profiling = false;
        } else {
            load_scale = std::atof(argv[i]);
        }
    }

    exp::ExperimentOptions opt;
    opt.loadScale = load_scale;
    // A serial driver: one inline worker, and HCLOUD_THREADS stays unread.
    opt.threads = 1;
    exp::Runner runner(opt);

    const workload::TraceStats stats = runner.trace(kind).stats();
    std::printf("scenario %s  scale %.2f  jobs %zu  cores [%0.f, %0.f] "
                "(%.1fx)  profiling=%s\n",
                toString(kind), load_scale, stats.jobCount, stats.minCores,
                stats.maxCores, stats.maxMinCoreRatio,
                profiling ? "on" : "off");

    const cloud::AwsStylePricing pricing;
    std::vector<std::vector<std::string>> rows;
    for (core::StrategyKind s : core::kAllStrategies) {
        const core::RunResult& r = runner.run(kind, s, profiling);
        const cloud::CostBreakdown cost = r.cost(pricing);
        rows.push_back({
            r.strategy,
            exp::fmt(r.makespan / 60.0, 1),
            exp::fmt(r.batchTurnaroundMin.mean(), 1),
            exp::fmt(r.batchPerfNorm.mean(), 2),
            exp::fmt(r.lcLatencyUs.mean(), 0),
            exp::fmt(r.lcLatencyUs.empty()
                         ? 0.0
                         : r.lcLatencyUs.quantile(0.95), 0),
            exp::fmt(r.lcPerfNorm.mean(), 2),
            exp::fmt(cost.total(), 1),
            exp::fmt(100.0 * r.reservedUtilizationAvg, 0),
            exp::fmt(r.onDemandAllocated.average(0.0, r.makespan), 0),
            exp::fmt(r.onDemandUsed.average(0.0, r.makespan), 0),
            exp::fmt(r.billing.onDemandBilledHours(r.makespan), 0),
            std::to_string(r.acquisitions),
            std::to_string(r.immediateReleases),
            std::to_string(r.queuedJobs),
            std::to_string(r.reschedules),
            exp::fmt(r.queueWaits.empty() ? 0.0
                                          : r.queueWaits.quantile(0.95), 0),
            exp::fmt(r.spinUpWaits.empty()
                         ? 0.0
                         : r.spinUpWaits.quantile(0.95), 0),
        });
    }
    exp::printTable({"strategy", "makespan(m)", "batch(m)", "bPerf",
                     "lcP99(us)", "lcP99.95", "lcPerf", "cost($)",
                     "resUtil%", "odCap", "odUsed", "odHrs", "acq", "immRel",
                     "queued", "resched", "qW95", "suW95"},
                    rows);
    return 0;
}
