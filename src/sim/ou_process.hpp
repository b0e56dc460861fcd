/**
 * @file
 * Ornstein–Uhlenbeck process sampler.
 *
 * Used as the temporal component of instance quality and for external load
 * fluctuation: a mean-reverting random walk is the standard minimal model
 * for "noisy around a level" signals, and exposes exactly two intuitive
 * knobs — relaxation time and stationary standard deviation.
 */

#ifndef HCLOUD_SIM_OU_PROCESS_HPP
#define HCLOUD_SIM_OU_PROCESS_HPP

#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace hcloud::sim {

/**
 * Exact-discretization Ornstein–Uhlenbeck process:
 *
 *   dX = theta (mu - X) dt + sigma dW
 *
 * advanced with the closed-form transition density, so step size does not
 * bias the statistics.
 */
class OuProcess
{
  public:
    /**
     * @param mean Long-run mean mu.
     * @param relaxation Time constant 1/theta (seconds to decorrelate).
     * @param stationaryStddev Standard deviation of the stationary
     *        distribution.
     * @param rng Random stream (owned by the caller's composition root,
     *        copied here).
     * @param initial Starting value; defaults to the mean.
     */
    OuProcess(double mean, Duration relaxation, double stationaryStddev,
              Rng rng, double initial);

    OuProcess(double mean, Duration relaxation, double stationaryStddev,
              Rng rng);

    /** Advance the process to absolute time @p t and return X(t). */
    double advanceTo(Time t);

    /** Last sampled value without advancing. */
    double value() const { return x_; }

    double mean() const { return mean_; }
    double stationaryStddev() const { return stddev_; }

  private:
    double mean_;
    double theta_;
    double stddev_;
    Rng rng_;
    double x_;
    Time lastTime_ = 0.0;
    /** exp(-theta dt) and the step stddev for the last step length:
     *  ticks advance by the same dt, so most steps reuse them. */
    Duration stepDt_ = -1.0;
    double stepDecay_ = 0.0;
    double stepStddev_ = 0.0;
};

} // namespace hcloud::sim

#endif // HCLOUD_SIM_OU_PROCESS_HPP
