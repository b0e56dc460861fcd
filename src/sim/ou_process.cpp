#include "sim/ou_process.hpp"

#include <cassert>
#include <cmath>

namespace hcloud::sim {

OuProcess::OuProcess(double mean, Duration relaxation,
                     double stationaryStddev, Rng rng, double initial)
    : mean_(mean),
      theta_(relaxation > 0.0 ? 1.0 / relaxation : 1e9),
      stddev_(stationaryStddev),
      rng_(rng),
      x_(initial)
{
}

OuProcess::OuProcess(double mean, Duration relaxation,
                     double stationaryStddev, Rng rng)
    : OuProcess(mean, relaxation, stationaryStddev, rng, mean)
{
}

double
OuProcess::advanceTo(Time t)
{
    assert(t >= lastTime_ && "OU process cannot run backwards");
    const Duration dt = t - lastTime_;
    if (dt <= 0.0)
        return x_;
    lastTime_ = t;
    // Exact transition: X(t+dt) ~ N(mu + (X-mu) e^{-theta dt},
    //                               sigma^2 (1 - e^{-2 theta dt})).
    if (dt != stepDt_) {
        stepDt_ = dt;
        stepDecay_ = std::exp(-theta_ * dt);
        stepStddev_ = stddev_ * std::sqrt(1.0 - stepDecay_ * stepDecay_);
    }
    const double m = mean_ + (x_ - mean_) * stepDecay_;
    const double s = stepStddev_;
    x_ = s > 0.0 ? rng_.normal(m, s) : m;
    return x_;
}

} // namespace hcloud::sim
