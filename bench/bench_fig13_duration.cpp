/**
 * @file
 * Figure 13: absolute cost versus workload scenario duration.
 *
 * Usage: bench_fig13_duration [loadScale] [seed] [threads]
 *   loadScale scales the scenario load curves (default 1.0 = paper scale);
 *   seed selects the deterministic random seed (default 42);
 *   threads sets the worker count (default: HCLOUD_THREADS env var or
 *   hardware concurrency; 1 forces serial execution). Results are
 *   bit-identical at any thread count.
 */

#include <cstdlib>

#include "exp/figures.hpp"

int
main(int argc, char** argv)
{
    hcloud::exp::ExperimentOptions opt;
    if (argc > 1)
        opt.loadScale = std::atof(argv[1]);
    if (argc > 2)
        opt.seed = std::strtoull(argv[2], nullptr, 10);
    if (argc > 3)
        opt.threads = static_cast<std::size_t>(
            std::strtoull(argv[3], nullptr, 10));
    hcloud::exp::Runner runner(opt);
    hcloud::exp::fig13Duration(runner);
    return 0;
}
