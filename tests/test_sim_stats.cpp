/**
 * @file
 * Unit tests for the statistics containers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace hcloud::sim {
namespace {

TEST(OnlineStats, BasicMoments)
{
    OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZero)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeEquivalentToCombinedStream)
{
    Rng rng(3);
    OnlineStats all;
    OnlineStats left;
    OnlineStats right;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(5.0, 3.0);
        all.add(x);
        (i % 2 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(SampleSet, QuantilesInterpolateLikeNumpy)
{
    SampleSet s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.5);
    EXPECT_DOUBLE_EQ(s.quantile(0.25), 1.75);
    EXPECT_DOUBLE_EQ(s.percentile(75.0), 3.25);
}

TEST(SampleSet, EmptyQuantileReturnsZeroLikeMinMax)
{
    // Regression: this used to be an assert-only guard, so NDEBUG builds
    // indexed past the end of an empty sorted vector (fig01-style cells
    // where every job was killed hit it via boxplot()).
    const SampleSet s;
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(95.0), 0.0);
    const BoxplotSummary b = s.boxplot();
    EXPECT_EQ(b.count, 0u);
    EXPECT_DOUBLE_EQ(b.p95, 0.0);
}

TEST(SampleSet, SingleSampleQuantiles)
{
    SampleSet s;
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.0);
}

TEST(SampleSet, QuantileAfterLateInsertInvalidatesCache)
{
    SampleSet s;
    s.add(1.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

/** The full-sort quantile: type-7 interpolation over sorted samples. */
double
sortedQuantile(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
    if (lo == hi)
        return xs[lo];
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(SampleSet, SelectedQuantileMatchesSortedBitForBit)
{
    const double qs[] = {0.0, 1.0, 0.5, 0.95, 0.05, 0.25, 0.75,
                         0.99, 0.333, 0.95, 0.0, 1.0};
    Rng rng(2024);
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{7}, std::size_t{64},
                          std::size_t{241}, std::size_t{1000}}) {
        for (bool duplicates : {false, true}) {
            std::vector<double> xs;
            SampleSet selected; // answers by selection
            SampleSet sorted;   // primed, answers from its sorted copy
            for (std::size_t i = 0; i < n; ++i) {
                // Duplicates: a handful of distinct values, many ties.
                const double x = duplicates
                    ? static_cast<double>(rng.uniformInt(0, 4)) * 0.25
                    : rng.normal(100.0, 30.0);
                xs.push_back(x);
                selected.add(x);
                sorted.add(x);
                // Interleave queries with insertions.
                if (i % 5 == 0) {
                    const double q = qs[i % std::size(qs)];
                    EXPECT_EQ(bits(selected.quantile(q)),
                              bits(sortedQuantile(xs, q)))
                        << "n " << xs.size() << " q " << q;
                }
            }
            (void)sorted.sorted();
            for (double q : qs) {
                const double want = sortedQuantile(xs, q);
                EXPECT_EQ(bits(selected.quantile(q)), bits(want))
                    << "n " << n << " q " << q;
                EXPECT_EQ(bits(sorted.quantile(q)), bits(want))
                    << "n " << n << " q " << q;
            }
            const std::vector<double> many =
                selected.quantiles({0.05, 0.5, 0.95, 1.0});
            EXPECT_EQ(bits(many[0]), bits(sortedQuantile(xs, 0.05)));
            EXPECT_EQ(bits(many[1]), bits(sortedQuantile(xs, 0.5)));
            EXPECT_EQ(bits(many[2]), bits(sortedQuantile(xs, 0.95)));
            EXPECT_EQ(bits(many[3]), bits(sortedQuantile(xs, 1.0)));
        }
    }
}

TEST(SampleSet, BoxplotSummary)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    const BoxplotSummary b = s.boxplot();
    EXPECT_EQ(b.count, 100u);
    EXPECT_NEAR(b.p5, 5.95, 1e-9);
    EXPECT_NEAR(b.p25, 25.75, 1e-9);
    EXPECT_DOUBLE_EQ(b.mean, 50.5);
    EXPECT_NEAR(b.p75, 75.25, 1e-9);
    EXPECT_NEAR(b.p95, 95.05, 1e-9);
}

TEST(SampleSet, EmpiricalCdf)
{
    SampleSet s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.cdf(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.cdf(2.0), 0.5);
    EXPECT_DOUBLE_EQ(s.cdf(2.5), 0.5);
    EXPECT_DOUBLE_EQ(s.cdf(10.0), 1.0);
}

TEST(SampleSet, MergeAndClear)
{
    SampleSet a;
    SampleSet b;
    a.add(1.0);
    b.add(2.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    a.clear();
    EXPECT_TRUE(a.empty());
}

TEST(Histogram, BinsAndClamping)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_EQ(h.bins(), 5u);
    EXPECT_DOUBLE_EQ(h.binWidth(), 2.0);
    h.add(1.0);   // bin 0
    h.add(3.0);   // bin 1
    h.add(-5.0);  // clamps to bin 0
    h.add(99.0);  // clamps to bin 4
    EXPECT_DOUBLE_EQ(h.count(0), 2.0);
    EXPECT_DOUBLE_EQ(h.count(1), 1.0);
    EXPECT_DOUBLE_EQ(h.count(4), 1.0);
    EXPECT_DOUBLE_EQ(h.total(), 4.0);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
}

TEST(Histogram, WeightedMass)
{
    Histogram h(0.0, 1.0, 2);
    h.add(0.25, 3.0);
    h.add(0.75, 1.0);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
}

/** Quantiles must be order statistics: bounded and monotone in q. */
class QuantileMonotonicity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(QuantileMonotonicity, Holds)
{
    Rng rng(GetParam());
    SampleSet s;
    for (int i = 0; i < 500; ++i)
        s.add(rng.lognormal(0.0, 1.5));
    double prev = s.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double v = s.quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
    EXPECT_DOUBLE_EQ(s.quantile(0.0), s.min());
    EXPECT_DOUBLE_EQ(s.quantile(1.0), s.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotonicity,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull));

} // namespace
} // namespace hcloud::sim
