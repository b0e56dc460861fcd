#include "sim/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace hcloud::sim {

namespace {

/** SplitMix64 finalizer: good avalanche, cheap, stable across platforms. */
std::uint64_t
splitMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a over a string label. */
std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

__extension__ typedef unsigned __int128 Uint128;

} // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed)
{
    // The SplitMix64 generator started at the seed: word i is the
    // finalizer of seed + (i + 1) * golden. It is a bijection, so at
    // most one word is zero and the state is never all-zero.
    std::uint64_t x = seed;
    for (std::uint64_t& word : s_) {
        word = splitMix64(x);
        x += 0x9e3779b97f4a7c15ULL;
    }
}

Rng
Rng::fromState(std::uint64_t s0, std::uint64_t s1, std::uint64_t s2,
               std::uint64_t s3)
{
    Rng rng(0);
    rng.s_[0] = s0;
    rng.s_[1] = s1;
    rng.s_[2] = s2;
    rng.s_[3] = s3;
    return rng;
}

Rng
Rng::child(std::string_view label) const
{
    return Rng(splitMix64(seed_ ^ fnv1a(label)));
}

Rng
Rng::child(std::uint64_t key) const
{
    return Rng(splitMix64(seed_ ^ splitMix64(key ^ 0xa5a5a5a5a5a5a5a5ULL)));
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    // Lemire, "Fast Random Integer Generation in an Interval" (2019):
    // the high word of draw * n, rejecting the low words that would
    // make some results one draw more likely than others.
    Uint128 m = static_cast<Uint128>(next()) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
        const std::uint64_t threshold = (0 - n) % n;
        while (low < threshold) {
            m = static_cast<Uint128>(next()) * n;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::uniform(double lo, double hi)
{
    const double r = lo + (hi - lo) * unit();
    // Rounding can carry lo + (hi - lo) * u up to hi for u just below 1.
    return r < hi ? r : std::nextafter(hi, lo);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    if (span == std::numeric_limits<std::uint64_t>::max())
        return static_cast<std::int64_t>(next());
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     below(span + 1));
}

double
Rng::normal(double mean, double stddev)
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_ * stddev + mean;
    }
    // Marsaglia's polar method: a point uniform in the unit disc gives
    // two independent standard normals.
    double x;
    double y;
    double r2;
    do {
        x = 2.0 * unit() - 1.0;
        y = 2.0 * unit() - 1.0;
        r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    spare_ = x * mult;
    hasSpare_ = true;
    return y * mult * stddev + mean;
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

double
Rng::lognormalFromQuantiles(double median, double p95)
{
    // For X ~ LogNormal(mu, sigma): median = e^mu, p95 = e^(mu+1.6449*sigma).
    const double mu = std::log(median);
    const double sigma = (std::log(p95) - mu) / 1.6448536269514722;
    return lognormal(mu, std::max(sigma, 1e-9));
}

double
Rng::exponential(double mean)
{
    return -mean * std::log1p(-unit());
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return unit() < p;
}

double
Rng::gamma(double shape, double scale)
{
    if (shape < 1.0) {
        // Gamma(a) = Gamma(a + 1) * U^(1/a); 1 - unit() lies in (0, 1].
        const double g = gamma(shape + 1.0, scale);
        return g * std::pow(1.0 - unit(), 1.0 / shape);
    }
    // Marsaglia & Tsang, "A Simple Method for Generating Gamma
    // Variables" (2000).
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x;
        double v;
        do {
            x = normal(0.0, 1.0);
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = unit();
        const double x2 = x * x;
        if (u < 1.0 - 0.0331 * x2 * x2 ||
            std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v)))
            return d * v * scale;
    }
}

double
Rng::beta(double a, double b)
{
    const double x = gamma(a);
    const double y = gamma(b);
    const double s = x + y;
    return s > 0.0 ? x / s : 0.5;
}

double
Rng::pareto(double scale, double shape)
{
    const double u = uniform(std::numeric_limits<double>::min(), 1.0);
    return scale / std::pow(u, 1.0 / shape);
}

std::size_t
Rng::weightedIndex(const std::vector<double>& weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    double r = uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r <= 0.0)
            return i;
    }
    return weights.empty() ? 0 : weights.size() - 1;
}

} // namespace hcloud::sim
