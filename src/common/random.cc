#include "common/random.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace seesaw {

namespace {

/** splitmix64: expands a single seed into well-distributed state words. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * The first grid point m with geometricAt(mean, m) >= k (k >= 1), or
 * kUnitGridPoints if no grid point reaches k. The search starts from
 * the analytic crossing -expm1(-(k - 0.5) / mean) * 2^53, widens a
 * bracket around it, and bisects: about a dozen evaluations.
 */
std::uint64_t
firstGridPointReaching(double mean, std::uint64_t k)
{
    constexpr std::uint64_t last = kUnitGridPoints - 1;
    const auto reaches = [&](std::uint64_t m) {
        return geometricAt(mean, m) >= k;
    };
    const double guess =
        -std::expm1(-(static_cast<double>(k) - 0.5) / mean) * 0x1.0p53;
    const auto m0 = static_cast<std::uint64_t>(
        std::clamp(guess, 1.0, static_cast<double>(last)));
    // Bracket (lo, hi] with !reaches(lo) and reaches(hi); geometricAt
    // is 0 at m = 0, so lo = 0 always qualifies.
    std::uint64_t lo, hi;
    if (reaches(m0)) {
        hi = m0;
        for (std::uint64_t step = 16;; step *= 2) {
            lo = hi > step ? hi - step : 0;
            if (lo == 0 || !reaches(lo))
                break;
            hi = lo;
        }
    } else {
        lo = m0;
        for (std::uint64_t step = 16;; step *= 2) {
            hi = std::min(last, lo + step);
            if (reaches(hi))
                break;
            if (hi == last)
                return kUnitGridPoints;
            lo = hi;
        }
    }
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        (reaches(mid) ? hi : lo) = mid;
    }
    return hi;
}

} // namespace

std::uint64_t
geometricAt(double mean, std::uint64_t m)
{
    const double u = m * 0x1.0p-53;
    return static_cast<std::uint64_t>(-mean * std::log1p(-u) + 0.5);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : s_)
        word = splitmix64(s);
}

ZipfTable::ZipfTable(std::uint64_t n, double alpha)
    : alpha_(alpha), cdf_(n)
{
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf_[i] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;

    // Guide table: bucket b holds the first index whose CDF value is
    // >= b/B, which bounds the search for any u in [b/B, (b+1)/B) from
    // below; the next bucket's entry bounds it from above. B is
    // bit_ceil(n), so b/B and u * B are exact and a u never lands in a
    // bucket past its own: every search matches a full binary search.
    // Most draws then make 0-1 CDF probes.
    const std::uint64_t buckets =
        std::bit_ceil(std::max<std::uint64_t>(1, n));
    buckets_ = static_cast<double>(buckets);
    guide_.assign(buckets + 1, static_cast<std::uint32_t>(n - 1));
    std::uint64_t idx = 0;
    for (std::uint64_t b = 0; b < buckets; ++b) {
        const double lo_u = static_cast<double>(b) / buckets_;
        while (idx < n - 1 && cdf_[idx] < lo_u)
            ++idx;
        guide_[b] = static_cast<std::uint32_t>(idx);
    }
}

GeometricTable::GeometricTable(double mean)
    : mean_(mean), thresholds_{0}
{
    SEESAW_ASSERT(std::isfinite(mean), "geometric mean must be finite");
    if (mean > 0.0) {
        // Tabulate T_k until the tail above it has probability below
        // 2^-14, the grid runs out, or the table reaches its cap.
        for (std::uint64_t k = 1;; ++k) {
            const std::uint64_t t = firstGridPointReaching(mean, k);
            if (t == kUnitGridPoints)
                break; // no grid point reaches k: the table is whole
            // A k whose crossing shares a grid point with k-1 (a result
            // that jumps by two) keeps the thresholds non-decreasing.
            thresholds_.push_back(std::max(t, thresholds_.back()));
            const double tail_p =
                std::exp(-(static_cast<double>(k) - 0.5) / mean);
            if (tail_p < 0x1.0p-14 || k == kMaxThresholds) {
                tail_ = thresholds_.back();
                break;
            }
        }
    }
    thresholds_.push_back(kUnitGridPoints);

    // A bucket answers without a scan when no threshold lies in it or
    // within kWindow of its edges, and it lies below the tail.
    constexpr std::uint64_t bucket_span = 1ULL << kGuideShift;
    guide_.resize(1U << kGuideBits);
    std::uint64_t k = 0;
    for (std::uint64_t b = 0; b < guide_.size(); ++b) {
        const std::uint64_t first = b * bucket_span;
        const std::uint64_t last = first + bucket_span - 1;
        while (thresholds_[k + 1] <= first)
            ++k;
        const bool direct = thresholds_[k + 1] > last + kWindow &&
                            first - thresholds_[k] >= kWindow &&
                            last < tail_;
        guide_[b] = static_cast<std::uint32_t>(k) | (direct ? 0 : kSlow);
    }
}

std::uint64_t
GeometricTable::atSlow(std::uint64_t m, std::uint64_t k) const
{
    if (m >= tail_)
        return geometricAt(mean_, m);
    while (thresholds_[k + 1] <= m)
        ++k;
    if (m - thresholds_[k] < kWindow ||
        thresholds_[k + 1] - m <= kWindow)
        return geometricAt(mean_, m);
    return k;
}

} // namespace seesaw
