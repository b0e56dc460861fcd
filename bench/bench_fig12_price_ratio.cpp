/**
 * @file
 * Figure 12: cost sensitivity to the on-demand:reserved price ratio.
 *
 * Usage: bench_fig12_price_ratio [loadScale] [seed] [threads]
 *                                [--json <path>] [--trace <path>]
 *                                [--metrics-port <port>]
 *                                [--seeds <n>] [--ci]
 *   loadScale scales the scenario load curves (default 1.0 = paper scale);
 *   seed selects the deterministic random seed (default 42);
 *   threads sets the worker count (default: HCLOUD_THREADS env var or
 *   hardware concurrency; 1 forces serial execution). Results are
 *   bit-identical at any thread count;
 *   --json writes a machine-readable report of every run;
 *   --trace forces tracing on and writes the event streams as JSONL
 *   (without it, the HCLOUD_TRACE environment knob decides). The JSONL
 *   is byte-identical for any HCLOUD_THREADS value at a fixed seed;
 *   --metrics-port serves live Prometheus metrics on 127.0.0.1 for the
 *   lifetime of the sweep (0 = ephemeral port, printed at startup);
 *   --seeds / --ci replace the single-seed figure with a multi-seed
 *   exp::runSweep over the fig12 grid: per-cell mean +/- 95% CI on
 *   stdout, and the aggregates in the --json report's `sweeps` array.
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
        options.title = "fig12_price_ratio";
        options.seeds = cli.effectiveSeeds();
        options.baseSeed = cli.options.seed;
        options.loadScale = cli.options.loadScale;
        options.threads = cli.options.threads;
        exp::SweepResult sweep =
            exp::runSweep(exp::fig12SweepGrid(cli.engineConfig()),
                          options);
        exp::printSweepTable(sweep);
        return exp::writeBenchArtifacts(cli, "fig12_price_ratio", runner,
                                        {sweep})
            ? 0
            : 1;
    }
    runner.setRecordAdhoc(cli.wantsArtifacts());
    exp::fig12PriceRatio(runner);
    return exp::writeBenchArtifacts(cli, "fig12_price_ratio", runner)
        ? 0
        : 1;
}
