/**
 * @file
 * Unit and property tests for the deterministic RNG and its child
 * streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace hcloud::sim {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.uniform() == b.uniform();
    EXPECT_LT(equal, 5);
}

TEST(Rng, ChildStreamsAreStableByLabel)
{
    Rng root(42);
    Rng a = root.child("spin_up");
    Rng b = root.child("spin_up");
    EXPECT_EQ(a.seed(), b.seed());
    EXPECT_NE(root.child("spin_up").seed(), root.child("quality").seed());
}

TEST(Rng, ChildDerivationDoesNotConsumeParentState)
{
    Rng a(7);
    Rng b(7);
    (void)a.child("x");
    (void)a.child("y");
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, IntegerChildKeysProduceDistinctStreams)
{
    Rng root(42);
    EXPECT_NE(root.child(std::uint64_t{1}).seed(),
              root.child(std::uint64_t{2}).seed());
}

TEST(Rng, UniformStaysInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(2.0, 3.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng rng(5);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMatchesMoments)
{
    Rng rng(9);
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, NormalFirstDrawsArePinned)
{
    // The simulator's output is a function of these bits, on any
    // compiler and standard library: Rng owns its engine and its polar
    // method, and every other draw is the kept spare of a pair.
    const double expected[] = {
        -0x1.b088028693f9cp-3,
        -0x1.73d2feb0fb377p-1,
        0x1.0ba8bb0c5fa51p-1,
        0x1.c5e21f7812a4cp-3,
        0x1.7b6195d5a3e23p-1,
        0x1.db514bfac5b4ep-2,
        0x1.e20eadc1acf5bp-2,
        0x1.79eb7c13cfccdp+0,
        -0x1.27ff46db4a30bp+0,
        0x1.02007c2380aeap+0,
        -0x1.3804e59c2fc12p-1,
        0x1.06f74c2a8e101p+0,
        0x1.53a821553f75ep-1,
        0x1.7bb262180f952p-2,
        0x1.0a47956a8bb82p+0,
        0x1.61ec2cfebd724p-2,
    };
    Rng rng(42);
    for (double e : expected)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.normal(0.0, 1.0)),
                  std::bit_cast<std::uint64_t>(e));
}

TEST(Rng, NormalSpareIsScaledOnReturn)
{
    // The kept spare is a standard normal: the second draw of a pair
    // takes the mean and stddev of the call that returns it.
    Rng a(77);
    Rng b(77);
    const double z1 = a.normal(0.0, 1.0);
    const double z2 = a.normal(0.0, 1.0);
    EXPECT_EQ(b.normal(0.0, 1.0), z1);
    EXPECT_EQ(b.normal(5.0, 3.0), z2 * 3.0 + 5.0);
}

TEST(Rng, XoshiroReferenceOutputs)
{
    // xoshiro256** from state {1, 2, 3, 4}, as the reference C code
    // computes it.
    Rng rng = Rng::fromState(1, 2, 3, 4);
    EXPECT_EQ(rng.next(), 11520u);
    EXPECT_EQ(rng.next(), 0u);
    EXPECT_EQ(rng.next(), 1509978240u);
    EXPECT_EQ(rng.next(), 1215971899390074240u);
}

TEST(Rng, ChildSeedsArePinned)
{
    // Seed derivation is part of every seed list and every run's
    // identity (quasar, deriveSeedList, serve tenants): it must not move.
    const Rng root(42);
    EXPECT_EQ(root.child("quasar").seed(), 0x38241ff8b4f329cbULL);
    EXPECT_EQ(root.child(std::uint64_t{7}).seed(), 0xf9e7fd4957ca64a0ULL);
    EXPECT_EQ(root.child("instance").child(std::uint64_t{3}).seed(),
              0x5e89b6c63a6b5034ULL);
}

TEST(Rng, StreamIsSmall)
{
    // Every Instance, Machine and OU process holds one by value.
    static_assert(sizeof(Rng) <= 64);
}

TEST(Rng, UniformNeverReturnsHi)
{
    // A one-ulp range rounds lo + (hi - lo) * u up to hi for half of all
    // u; the result must still lie in [lo, hi).
    Rng rng(31);
    const double lo = 1.0;
    const double hi = std::nextafter(lo, 2.0);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(rng.uniform(lo, hi), lo);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniform(-1e300, 1e300);
        ASSERT_LT(x, 1e300);
        ASSERT_GE(x, -1e300);
    }
}

TEST(Rng, UniformIntEdgeCases)
{
    Rng rng(37);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(rng.uniformInt(-5, -5), -5);

    // The full int64 span takes the raw draw: both signs, both halves.
    constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    int negative = 0;
    for (int i = 0; i < 1000; ++i)
        negative += rng.uniformInt(kMin, kMax) < 0;
    EXPECT_GT(negative, 400);
    EXPECT_LT(negative, 600);

    // One short of the full span still stays inside it.
    for (int i = 0; i < 1000; ++i)
        ASSERT_GT(rng.uniformInt(kMin + 1, kMax), kMin);
}

TEST(Rng, UniformIntChiSquare)
{
    // 10 bins, 100 k draws: chi-square with 9 degrees of freedom stays
    // below its 0.999 quantile (27.88).
    Rng rng(41);
    constexpr int kBins = 10;
    constexpr int kDraws = 100000;
    std::vector<int> counts(kBins, 0);
    for (int i = 0; i < kDraws; ++i)
        ++counts[static_cast<std::size_t>(rng.uniformInt(3, 3 + kBins - 1) - 3)];
    const double expected = static_cast<double>(kDraws) / kBins;
    double chi2 = 0.0;
    for (int c : counts)
        chi2 += (c - expected) * (c - expected) / expected;
    EXPECT_LT(chi2, 27.88);
}

TEST(Rng, GammaMoments)
{
    // Gamma(k, theta): mean k * theta, variance k * theta^2. Shape 0.3
    // takes the U^(1/k) boost path.
    const std::pair<double, double> params[] = {
        {3.0, 2.0}, {1.0, 1.0}, {0.3, 1.0}, {0.05, 4.0}};
    for (const auto& [shape, scale] : params) {
        Rng rng(43);
        OnlineStats stats;
        for (int i = 0; i < 200000; ++i) {
            const double x = rng.gamma(shape, scale);
            ASSERT_GE(x, 0.0);
            stats.add(x);
        }
        const double mean = shape * scale;
        const double sd = std::sqrt(shape) * scale;
        EXPECT_NEAR(stats.mean(), mean, 0.02 * mean + 0.01 * sd)
            << "shape " << shape;
        EXPECT_NEAR(stats.stddev(), sd, 0.03 * sd) << "shape " << shape;
    }
}

TEST(Rng, BetaMomentsWithSmallShapes)
{
    // Instance and QualityTracker draw Beta(mean * kappa, ...) with
    // shapes below one for extreme means.
    const std::pair<double, double> params[] = {
        {0.5, 0.5}, {2.0, 0.3}, {0.2, 5.0}};
    for (const auto& [a, b] : params) {
        Rng rng(47);
        OnlineStats stats;
        for (int i = 0; i < 200000; ++i) {
            const double x = rng.beta(a, b);
            ASSERT_GE(x, 0.0);
            ASSERT_LE(x, 1.0);
            stats.add(x);
        }
        const double mean = a / (a + b);
        const double var = a * b / ((a + b) * (a + b) * (a + b + 1.0));
        EXPECT_NEAR(stats.mean(), mean, 0.005) << a << "," << b;
        EXPECT_NEAR(stats.stddev(), std::sqrt(var), 0.005) << a << "," << b;
    }
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng rng(53);
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    std::vector<int> shuffled = v;
    rng.shuffle(shuffled.begin(), shuffled.end());
    EXPECT_NE(shuffled, v);
    std::vector<int> sorted = shuffled;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, v);

    // Every position receives every value about equally often.
    std::vector<int> first(4, 0);
    for (int i = 0; i < 40000; ++i) {
        int small[] = {0, 1, 2, 3};
        rng.shuffle(std::begin(small), std::end(small));
        ++first[static_cast<std::size_t>(small[0])];
    }
    for (int c : first)
        EXPECT_NEAR(c / 40000.0, 0.25, 0.01);

    std::vector<int> empty;
    rng.shuffle(empty.begin(), empty.end());
    std::vector<int> one = {9};
    rng.shuffle(one.begin(), one.end());
    EXPECT_EQ(one, std::vector<int>{9});
}

TEST(Rng, LognormalQuantileCalibration)
{
    // lognormalFromQuantiles(median, p95) must reproduce those quantiles.
    Rng rng(11);
    SampleSet samples;
    for (int i = 0; i < 40000; ++i)
        samples.add(rng.lognormalFromQuantiles(15.0, 120.0));
    EXPECT_NEAR(samples.quantile(0.5), 15.0, 1.0);
    EXPECT_NEAR(samples.quantile(0.95), 120.0, 12.0);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(13);
    OnlineStats stats;
    for (int i = 0; i < 30000; ++i)
        stats.add(rng.exponential(4.0));
    EXPECT_NEAR(stats.mean(), 4.0, 0.15);
}

TEST(Rng, BernoulliFrequencyAndEdgeCases)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, BetaBoundedWithCorrectMean)
{
    Rng rng(19);
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i) {
        const double x = rng.beta(8.0, 2.0);
        EXPECT_GE(x, 0.0);
        EXPECT_LE(x, 1.0);
        stats.add(x);
    }
    EXPECT_NEAR(stats.mean(), 0.8, 0.02);
}

TEST(Rng, ParetoRespectsScale)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.pareto(3.0, 2.0), 3.0);
}

TEST(Rng, WeightedIndexFollowsWeights)
{
    Rng rng(29);
    const std::vector<double> weights = {1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 30000; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
    EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.02);
    EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.02);
}

/** Determinism must hold across every seed, not just one. */
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngSeedSweep, ChildStreamsDeterministicAndDecorrelated)
{
    const std::uint64_t seed = GetParam();
    Rng a = Rng(seed).child("alpha");
    Rng b = Rng(seed).child("alpha");
    Rng c = Rng(seed).child("beta");
    double max_abs_diff = 0.0;
    int identical_to_c = 0;
    for (int i = 0; i < 200; ++i) {
        const double va = a.uniform();
        const double vb = b.uniform();
        const double vc = c.uniform();
        max_abs_diff = std::max(max_abs_diff, std::abs(va - vb));
        identical_to_c += va == vc;
    }
    EXPECT_EQ(max_abs_diff, 0.0);
    EXPECT_LT(identical_to_c, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 1337ull,
                                           0xffffffffffffffffull));

} // namespace
} // namespace hcloud::sim
