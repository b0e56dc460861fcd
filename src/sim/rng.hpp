/**
 * @file
 * Deterministic random-number generation with named child streams.
 *
 * Reproducibility is a hard requirement: a full scenario run must be
 * bit-identical across invocations given the same root seed, on any
 * compiler and standard library. The engine (xoshiro256**) and every
 * distribution are written here, so the bits a seed produces are a
 * property of this repo, not of the toolchain.
 *
 * To keep independent subsystems statistically independent *and*
 * insensitive to the order in which other subsystems draw numbers, every
 * subsystem derives its own child stream by hashing the parent seed with a
 * label (e.g. rng.child("spin_up")). Adding draws in one subsystem then
 * never perturbs another subsystem's sequence.
 */

#ifndef HCLOUD_SIM_RNG_HPP
#define HCLOUD_SIM_RNG_HPP

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

namespace hcloud::sim {

/**
 * Seeded xoshiro256** stream (Blackman & Vigna) with the convenience
 * distributions used throughout the simulator. The 4-word state is
 * filled by SplitMix64 from the stream's seed, so a stream is cheap to
 * derive and small to hold.
 */
class Rng
{
  public:
    /** Construct a stream from an explicit 64-bit seed. */
    explicit Rng(std::uint64_t seed);

    /**
     * A stream whose engine starts from the given state words (seed() is
     * 0): for checking the engine against xoshiro256**'s reference
     * outputs. The state must not be all zero.
     */
    static Rng fromState(std::uint64_t s0, std::uint64_t s1,
                         std::uint64_t s2, std::uint64_t s3);

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

    /** Next raw 64-bit output of the xoshiro256** engine. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform real in [lo, hi); never returns @p hi when lo < hi. */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** Uniform integer in [lo, hi] inclusive (any span, even all of int64). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * Normal draw with the given mean and standard deviation: the polar
     * method. Each accepted pair yields two standard normals; the second
     * is kept and scaled on the next call, so every other call costs no
     * engine draw.
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
     * Gamma(shape, scale) draw: Marsaglia–Tsang squeeze for shape >= 1,
     * and Gamma(shape + 1) * U^(1/shape) below it.
     */
    double gamma(double shape, double scale = 1.0);

    /**
     * Beta(a, b) draw via two gamma draws. Used for bounded quality
     * distributions in [0, 1].
     */
    double beta(double a, double b);

    /** Pareto draw with scale x_m and shape alpha (heavy-tailed). */
    double pareto(double scale, double shape);

    /** Pick an index in [0, weights.size()) proportionally to weights. */
    std::size_t weightedIndex(const std::vector<double>& weights);

    /** Fisher–Yates shuffle of [first, last) in place. */
    template <typename RandomIt>
    void
    shuffle(RandomIt first, RandomIt last)
    {
        const auto n = static_cast<std::uint64_t>(std::distance(first, last));
        for (std::uint64_t i = n; i > 1; --i) {
            const std::uint64_t j = below(i);
            using std::swap;
            swap(first[static_cast<std::ptrdiff_t>(i - 1)],
                 first[static_cast<std::ptrdiff_t>(j)]);
        }
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** Uniform in [0, 1) with 53 random bits. */
    double
    unit()
    {
        return static_cast<double>(next() >> 11) * 0x1p-53;
    }

    /** Uniform integer in [0, n) for n > 0 (Lemire, with rejection). */
    std::uint64_t below(std::uint64_t n);

    std::uint64_t seed_;
    std::uint64_t s_[4];
    /** Second standard normal of the last polar pair, if unused. */
    double spare_ = 0.0;
    bool hasSpare_ = false;
};

} // namespace hcloud::sim

#endif // HCLOUD_SIM_RNG_HPP
