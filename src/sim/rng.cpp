#include "sim/rng.hpp"

#include <cmath>
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

/**
 * Uniform in [0, 1) from one 64-bit draw, as libstdc++'s
 * generate_canonical<double, 53> computes it for mt19937_64: the draw
 * scaled by 2^-64 (exact), with the few draws that round up to 1.0
 * pulled just below it.
 */
double
canonical(std::mt19937_64& engine)
{
    const double u = static_cast<double>(engine()) * 0x1p-64;
    return u >= 1.0 ? std::nextafter(1.0, 0.0) : u;
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : seed_(seed), engine_(splitMix64(seed))
{
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

double
Rng::uniform(double lo, double hi)
{
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double
Rng::normal(double mean, double stddev)
{
    // Marsaglia's polar method, operation for operation as libstdc++'s
    // normal_distribution computes it, so every draw keeps its bits on
    // any standard library. The second normal of each accepted pair is
    // discarded, as a freshly constructed distribution would discard it.
    double x;
    double y;
    double r2;
    do {
        x = 2.0 * canonical(engine_) - 1.0;
        y = 2.0 * canonical(engine_) - 1.0;
        r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return y * mult * stddev + mean;
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
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
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return std::bernoulli_distribution(p)(engine_);
}

double
Rng::beta(double a, double b)
{
    std::gamma_distribution<double> ga(a, 1.0);
    std::gamma_distribution<double> gb(b, 1.0);
    const double x = ga(engine_);
    const double y = gb(engine_);
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
