/**
 * @file
 * Former name of exp::Runner, which now owns the thread pool itself.
 *
 * The alias exists only because perfbench includes this header,
 * constructs runtime::ParallelRunner and links hcloud_runtime; the
 * benchmark tree is changed on its own, so the alias and the target go
 * with the next benchmark change. Everything else uses exp::Runner.
 */

#ifndef HCLOUD_RUNTIME_PARALLEL_RUNNER_HPP
#define HCLOUD_RUNTIME_PARALLEL_RUNNER_HPP

#include "exp/runner.hpp"

namespace hcloud::runtime {

using ParallelRunner = exp::Runner;

} // namespace hcloud::runtime

#endif // HCLOUD_RUNTIME_PARALLEL_RUNNER_HPP
