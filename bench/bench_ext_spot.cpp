/**
 * @file
 * Extension study (Section 5.5): spot instances in the provisioning mix.
 *
 * The paper defers spot instances to future work. This bench quantifies
 * the opportunity: HS (hybrid + spot for tolerant batch work) against
 * HM and SR across the three scenarios, reporting cost, performance and
 * interruption counts.
 *
 * Usage: bench_ext_spot [loadScale] [seed]
 */

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "cloud/pricing.hpp"
#include "core/engine.hpp"
#include "core/hybrid_spot.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

int
main(int argc, char** argv)
{
    using namespace hcloud;

    exp::ExperimentOptions opt;
    // A serial figure: one inline worker, and HCLOUD_THREADS stays unread.
    opt.threads = 1;
    if (argc > 1)
        opt.loadScale = std::atof(argv[1]);
    if (argc > 2)
        opt.seed = std::strtoull(argv[2], nullptr, 10);

    exp::printHeader("Extension: spot instances for tolerant batch work "
                     "(HS = HM + spot tier)");

    exp::Runner runner(opt);
    const cloud::AwsStylePricing pricing;
    const double base =
        runner.run(workload::ScenarioKind::Static, core::StrategyKind::SR)
            .cost(pricing)
            .total();

    std::vector<std::vector<std::string>> rows;
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        const core::RunResult& sr =
            runner.run(scenario, core::StrategyKind::SR);
        const core::RunResult& hm =
            runner.run(scenario, core::StrategyKind::HM);
        core::EngineConfig cfg = runner.baseConfig();
        cfg.seed = opt.seed;
        core::Engine engine(cfg);
        const core::RunResult hs = engine.run(
            runner.trace(scenario),
            [](core::EngineContext& ctx) {
                return std::make_unique<core::HybridSpotStrategy>(ctx);
            },
            toString(scenario));

        for (const core::RunResult* r : {&sr, &hm, &hs}) {
            rows.push_back({
                std::string(toString(scenario)),
                r->strategy,
                exp::fmt(r->cost(pricing).total() / base, 2),
                exp::fmt(100.0 * r->meanPerfNorm(), 1),
                exp::fmt(r->lcLatencyUs.mean(), 0),
                std::to_string(r->acquisitions),
                std::to_string(r->spotInterruptions),
            });
        }
    }
    exp::printTable({"scenario", "strategy", "cost (norm)",
                     "mean perf %", "LC p99 (us)", "acquisitions",
                     "spot interrupts"},
                    rows);
    exp::printClaim("spot tier reduces hybrid cost",
                    "future work (Section 5.5)",
                    "compare HS vs HM cost rows");
    exp::printClaim("interruptions do not fail jobs",
                    "eviction + resubmission",
                    "perf within a few % of HM");
    return 0;
}
