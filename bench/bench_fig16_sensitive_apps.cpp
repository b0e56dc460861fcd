/**
 * @file
 * Figure 16: sensitivity to the fraction of interference-sensitive applications.
 *
 * Usage: bench_fig16_sensitive_apps [loadScale] [seed] [threads]
 *                                   [--json <path>] [--trace <path>]
 *                                   [--metrics-port <port>]
 *                                   [--seeds <n>] [--ci]
 *   loadScale scales the scenario load curves (default 1.0 = paper scale);
 *   seed selects the deterministic random seed (default 42);
 *   threads sets the worker count (default: HCLOUD_THREADS env var or
 *   hardware concurrency; 1 forces serial execution). Results are
 *   bit-identical at any thread count;
 *   --seeds / --ci replace the single-seed figure with a multi-seed
 *   exp::runSweep over the sensitive-fraction grid: per-cell mean +/-
 *   95% CI on stdout, and the aggregates in the --json report's
 *   `sweeps` array.
 */

#include "exp/cli.hpp"
#include "exp/figures.hpp"
#include "exp/sweep.hpp"

int
main(int argc, char** argv)
{
    namespace exp = hcloud::exp;
    exp::BenchCli cli = exp::parseBenchCli(argc, argv,
                                           /*allowSweep=*/true);
    if (cli.parseError)
        return 2;
    exp::ScopedMetricsServer metrics(cli);
    if (metrics.failed())
        return 1;
    hcloud::exp::Runner runner(cli.options, cli.engineConfig());
    if (cli.sweepRequested()) {
        exp::SweepOptions options;
        options.title = "fig16_sensitive_apps";
        options.seeds = cli.effectiveSeeds();
        options.baseSeed = cli.options.seed;
        options.loadScale = cli.options.loadScale;
        options.threads = cli.options.threads;
        exp::SweepResult sweep =
            exp::runSweep(exp::fig16SweepGrid(cli.engineConfig()),
                          options);
        exp::printSweepTable(sweep);
        return exp::writeBenchArtifacts(cli, "fig16_sensitive_apps",
                                        runner, {sweep})
            ? 0
            : 1;
    }
    runner.setRecordAdhoc(cli.wantsArtifacts());
    exp::fig16SensitiveApps(runner);
    return exp::writeBenchArtifacts(cli, "fig16_sensitive_apps", runner)
        ? 0
        : 1;
}
