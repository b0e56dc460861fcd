/**
 * @file
 * Policy explorer: compare the application-mapping policies (P1-P8) of
 * HCloud's hybrid strategies on a chosen scenario.
 *
 * Shows the trade-off space of Section 4.2: quality-threshold policies
 * protect sensitive jobs but queue the reserved pool; load-threshold
 * policies protect the pool but strand sensitive jobs on noisy
 * on-demand instances; the dynamic policy (P8) balances both with its
 * adaptive soft limit.
 *
 * Usage: policy_explorer [static|low|high] [hf|hm]
 */

#include <cstdio>
#include <cstring>

#include "cloud/pricing.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

int
main(int argc, char** argv)
{
    using namespace hcloud;

    workload::ScenarioKind kind = workload::ScenarioKind::HighVariability;
    core::StrategyKind strategy = core::StrategyKind::HM;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "static"))
            kind = workload::ScenarioKind::Static;
        else if (!std::strcmp(argv[i], "low"))
            kind = workload::ScenarioKind::LowVariability;
        else if (!std::strcmp(argv[i], "high"))
            kind = workload::ScenarioKind::HighVariability;
        else if (!std::strcmp(argv[i], "hf"))
            strategy = core::StrategyKind::HF;
        else if (!std::strcmp(argv[i], "hm"))
            strategy = core::StrategyKind::HM;
    }

    std::printf("mapping-policy exploration: %s on the %s scenario\n\n",
                toString(strategy), toString(kind));

    exp::ExperimentOptions opt;
    // A serial driver: one inline worker, and HCLOUD_THREADS stays unread.
    opt.threads = 1;
    exp::Runner runner(opt);
    const cloud::AwsStylePricing pricing;
    const double base_cost =
        runner.run(workload::ScenarioKind::Static, core::StrategyKind::SR)
            .cost(pricing)
            .total();

    std::vector<std::vector<std::string>> rows;
    for (core::PolicyKind policy : core::kAllPolicies) {
        core::EngineConfig cfg = runner.baseConfig();
        cfg.mappingPolicy = policy;
        const core::RunResult r = runner.runWith(kind, strategy, cfg);
        rows.push_back({
            toString(policy),
            exp::fmt(100.0 * r.perfReserved.mean(), 1),
            exp::fmt(100.0 * r.perfOnDemand.mean(), 1),
            exp::fmt(100.0 * r.reservedUtilizationAvg, 1),
            exp::fmt(r.cost(pricing).total() / base_cost, 2),
            std::to_string(r.queuedJobs),
            exp::fmt(r.lcLatencyUs.mean(), 0),
        });
    }
    exp::printTable({"policy", "reserved perf %", "on-demand perf %",
                     "reserved util %", "cost (norm)", "queued",
                     "LC p99 (us)"},
                    rows);

    std::printf("\nreading guide:\n"
                "  P1 random       : both sides suffer\n"
                "  P2-P4 Q-threshold: on-demand improves as the bar\n"
                "                     rises, reserved queues up\n"
                "  P5-P7 load-limit : reserved protected, sensitive jobs\n"
                "                     stranded on-demand\n"
                "  P8 dynamic      : adaptive soft limit + Q90 test\n");
    return 0;
}
