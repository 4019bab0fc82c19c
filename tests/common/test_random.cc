/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <vector>

#include "common/random.hh"
#include "workload/workload_spec.hh"

namespace seesaw {
namespace {

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedOfOneIsAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng rng(11);
    std::vector<int> counts(8, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.nextBounded(8)];
    for (int c : counts) {
        EXPECT_GT(c, n / 8 * 0.9);
        EXPECT_LT(c, n / 8 * 1.1);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(19);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, ZipfInRange)
{
    Rng rng(23);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextZipf(100, 0.9), 100u);
}

TEST(Rng, ZipfIsSkewedTowardLowRanks)
{
    Rng rng(29);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        ++counts[rng.nextZipf(1000, 1.0)];
    // Rank 0 must dominate rank 100 heavily under alpha=1.
    EXPECT_GT(counts[0], counts[100] * 10);
}

TEST(Rng, ZipfHandlesDomainSwitch)
{
    Rng rng(31);
    EXPECT_LT(rng.nextZipf(10, 0.8), 10u);
    EXPECT_LT(rng.nextZipf(100, 1.2), 100u);
    EXPECT_LT(rng.nextZipf(10, 0.8), 10u);
}

TEST(Rng, GeometricMeanApproximatelyCorrect)
{
    Rng rng(37);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(5.0));
    EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, GeometricZeroMeanIsZero)
{
    Rng rng(41);
    EXPECT_EQ(rng.nextGeometric(0.0), 0u);
    EXPECT_EQ(rng.nextGeometric(-1.0), 0u);
}

/** The gap means of every paper workload (1/memRefFraction - 1) plus
 *  the edge means: none, far below one, one half, and a long gap. */
std::vector<double>
gapTableMeans()
{
    std::vector<double> means = {0.0, 0.01, 0.5, 128.0};
    for (const auto &w : paperWorkloads())
        means.push_back(1.0 / w.memRefFraction - 1.0);
    std::sort(means.begin(), means.end());
    means.erase(std::unique(means.begin(), means.end()), means.end());
    return means;
}

/** Grid points in [lo, hi] at which the table and the formula differ;
 *  the first one is reported through @p first. */
std::uint64_t
mismatchesOver(const GeometricTable &table, std::uint64_t lo,
               std::uint64_t hi, std::uint64_t &first)
{
    std::uint64_t bad = 0;
    for (std::uint64_t m = lo; m <= hi && m < kUnitGridPoints; ++m) {
        if (table.at(m) != geometricAt(table.mean(), m) && bad++ == 0)
            first = m;
    }
    return bad;
}

TEST(GeometricTable, MatchesTheFormulaAroundEveryThreshold)
{
    constexpr std::uint64_t kAround = 1ULL << 12;
    constexpr std::uint64_t kBucket = kUnitGridPoints >> 12;
    for (const double mean : gapTableMeans()) {
        const GeometricTable table(mean);
        const auto &t = table.thresholds();
        std::uint64_t bad = 0, first = 0;
        for (std::size_t k = 1; k + 1 < t.size(); ++k) {
            const std::uint64_t lo = t[k] > kAround ? t[k] - kAround : 0;
            bad += mismatchesOver(table, lo, t[k] + kAround, first);
        }
        // Both edges of every guide bucket.
        for (std::uint64_t m = 0; m < kUnitGridPoints; m += kBucket)
            bad += mismatchesOver(table, m > 0 ? m - 1 : 0, m, first);
        EXPECT_EQ(bad, 0u) << "mean " << mean << ", first at m = "
                           << first << ", " << t.size() - 2
                           << " thresholds";
    }
}

TEST(GeometricTable, MatchesTheFormulaInTheTail)
{
    constexpr std::uint64_t kAround = 1ULL << 12;
    constexpr std::uint64_t kSamples = 1ULL << 16;
    for (const double mean : gapTableMeans()) {
        const GeometricTable table(mean);
        if (table.tail() == kUnitGridPoints)
            continue; // every threshold on the grid is tabulated
        const std::uint64_t tail = table.tail();
        const std::uint64_t tabulated = table.thresholds().size() - 2;
        // The tail holds results past the last tabulated threshold, so
        // an answer capped at the table would show here.
        ASSERT_GT(geometricAt(mean, kUnitGridPoints - 1), tabulated)
            << "mean " << mean;
        std::uint64_t bad = 0, first = 0;
        bad += mismatchesOver(table, tail - kAround, tail + kAround, first);
        const std::uint64_t stride = (kUnitGridPoints - tail) / kSamples;
        for (std::uint64_t i = 0; i < kSamples; ++i) {
            const std::uint64_t m = tail + i * stride + i % 7;
            bad += mismatchesOver(table, m, m, first);
        }
        bad += mismatchesOver(table, kUnitGridPoints - kAround,
                              kUnitGridPoints - 1, first);
        EXPECT_EQ(bad, 0u) << "mean " << mean << ", first at m = "
                           << first;
    }
}

TEST(GeometricTable, DrawsWhatNextGeometricDraws)
{
    // 10^7 seeded draws across the means: the same values, and the
    // same draws consumed (mean 0 consumes none).
    const auto means = gapTableMeans();
    const int per_mean = 10'000'000 / static_cast<int>(means.size());
    for (std::size_t i = 0; i < means.size(); ++i) {
        const GeometricTable table(means[i]);
        Rng by_table(100 + i), by_formula(100 + i);
        int bad = 0;
        for (int d = 0; d < per_mean; ++d) {
            bad += table.draw(by_table) !=
                   by_formula.nextGeometric(means[i]);
        }
        EXPECT_EQ(bad, 0) << "mean " << means[i];
        EXPECT_EQ(by_table.next(), by_formula.next())
            << "mean " << means[i];
    }
}

/** The plain binary search the guide table must reproduce. */
std::uint64_t
firstCdfAtLeast(const std::vector<double> &cdf, double u)
{
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return std::min<std::uint64_t>(it - cdf.begin(), cdf.size() - 1);
}

TEST(ZipfTable, SearchMatchesBinarySearchAtEveryBucketEdge)
{
    // Hot-set sizes that are not powers of two, including the ones
    // whose old bucket counts (min(4096, n)) rounded u * B up across
    // an edge, plus one that is.
    for (const std::uint64_t n :
         {1ULL, 3ULL, 777ULL, 1000ULL, 2047ULL, 3000ULL, 4095ULL,
          5000ULL, 8192ULL}) {
        for (const double alpha : {0.8, 1.3}) {
            const ZipfTable zipf(n, alpha);
            const auto &cdf = zipf.cdf();
            std::vector<double> us;
            const auto near = [&](double v) {
                if (v < 1.0)
                    us.push_back(v);
                if (v > 0.0)
                    us.push_back(std::nextafter(v, 0.0));
            };
            const std::uint64_t buckets = std::bit_ceil(n);
            for (std::uint64_t b = 0; b <= buckets; ++b)
                near(static_cast<double>(b) / static_cast<double>(buckets));
            const std::uint64_t old_buckets = std::min<std::uint64_t>(4096, n);
            for (std::uint64_t b = 0; b <= old_buckets; ++b) {
                near(static_cast<double>(b) /
                     static_cast<double>(old_buckets));
            }
            for (const double c : cdf)
                near(c);
            int bad = 0;
            for (const double u : us)
                bad += zipf.search(u) != firstCdfAtLeast(cdf, u);
            EXPECT_EQ(bad, 0) << "n " << n << " alpha " << alpha;
        }
    }
}

} // namespace
} // namespace seesaw
