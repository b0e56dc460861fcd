/**
 * @file
 * Deterministic random-number generation with named child streams.
 *
 * Reproducibility is a hard requirement: a full scenario run must be
 * bit-identical across invocations given the same root seed. To keep
 * independent subsystems statistically independent *and* insensitive to
 * the order in which other subsystems draw numbers, every subsystem derives
 * its own child stream by hashing the parent seed with a label
 * (e.g. rng.child("spin_up")). Adding draws in one subsystem then never
 * perturbs another subsystem's sequence.
 */

#ifndef HCLOUD_SIM_RNG_HPP
#define HCLOUD_SIM_RNG_HPP

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace hcloud::sim {

/**
 * Seeded random stream wrapping std::mt19937_64 with convenience
 * distributions used throughout the simulator.
 */
class Rng
{
  public:
    /** Construct a stream from an explicit 64-bit seed. */
    explicit Rng(std::uint64_t seed);

    /**
     * Derive an independent child stream.
     *
     * The child's seed is a SplitMix64-style mix of this stream's seed and
     * a FNV-1a hash of @p label. Deriving a child does not consume any
     * state from the parent.
     *
     * @param label Stable name of the consumer subsystem.
     */
    Rng child(std::string_view label) const;

    /** Derive an independent child stream keyed by an integer (e.g. id). */
    Rng child(std::uint64_t key) const;

    /** Seed this stream was constructed with. */
    std::uint64_t seed() const { return seed_; }

    /** Uniform real in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * Normal draw with the given mean and standard deviation: the polar
     * method, bit-identical to a fresh std::normal_distribution of
     * libstdc++ (two or more engine draws per call).
     */
    double normal(double mean, double stddev);

    /** Lognormal draw parameterized by the underlying normal (mu, sigma). */
    double lognormal(double mu, double sigma);

    /**
     * Lognormal draw parameterized by target median and p95 quantile,
     * a convenient calibration interface for latency-like quantities.
     */
    double lognormalFromQuantiles(double median, double p95);

    /** Exponential draw with the given mean (not rate). */
    double exponential(double mean);

    /** Bernoulli draw: true with probability p. */
    bool bernoulli(double p);

    /**
     * Beta(a, b) draw via two gamma draws. Used for bounded quality
     * distributions in [0, 1].
     */
    double beta(double a, double b);

    /** Pareto draw with scale x_m and shape alpha (heavy-tailed). */
    double pareto(double scale, double shape);

    /** Pick an index in [0, weights.size()) proportionally to weights. */
    std::size_t weightedIndex(const std::vector<double>& weights);

    /** Access the raw engine for std:: distribution interop. */
    std::mt19937_64& engine() { return engine_; }

  private:
    std::uint64_t seed_;
    std::mt19937_64 engine_;
};

} // namespace hcloud::sim

#endif // HCLOUD_SIM_RNG_HPP
