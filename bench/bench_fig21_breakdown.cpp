/**
 * @file
 * Figure 21: allocation breakdown per application type under HM.
 *
 * Usage: bench_fig21_breakdown [loadScale] [seed]
 *   loadScale scales the scenario load curves (default 1.0 = paper scale);
 *   seed selects the deterministic random seed (default 42).
 */

#include <cstdlib>

#include "exp/figures.hpp"

int
main(int argc, char** argv)
{
    hcloud::exp::ExperimentOptions opt;
    // A serial figure: one inline worker, and HCLOUD_THREADS stays unread.
    opt.threads = 1;
    if (argc > 1)
        opt.loadScale = std::atof(argv[1]);
    if (argc > 2)
        opt.seed = std::strtoull(argv[2], nullptr, 10);
    hcloud::exp::Runner runner(opt);
    hcloud::exp::fig21Breakdown(runner);
    return 0;
}
