/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All stochastic components of the simulator draw from an explicitly
 * seeded Rng so that every experiment is reproducible bit-for-bit.
 */

#ifndef SEESAW_COMMON_RANDOM_HH
#define SEESAW_COMMON_RANDOM_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace seesaw {

/** Points on the grid of uniform doubles a draw can produce: a draw
 *  keeps the top 53 bits m of a raw value and maps them to m * 2^-53. */
inline constexpr std::uint64_t kUnitGridPoints = 1ULL << 53;

/**
 * The geometric-like reuse distance with mean @p mean at grid point
 * @p m (< kUnitGridPoints): the inverse CDF of the exponential at
 * u = m * 2^-53, rounded to the nearest integer (plain truncation
 * would bias the mean low by ~0.5). The one definition of the draw:
 * Rng::nextGeometric and GeometricTable both answer with it.
 */
std::uint64_t geometricAt(double mean, std::uint64_t m);

/**
 * A Zipf distribution over {0, .., n-1} with exponent alpha: its CDF
 * plus a guide table mapping the top bits of u to tight binary-search
 * bounds (Chen's method).
 */
class ZipfTable
{
  public:
    ZipfTable() = default;
    ZipfTable(std::uint64_t n, double alpha);

    std::uint64_t size() const { return cdf_.size(); }
    double alpha() const { return alpha_; }
    const std::vector<double> &cdf() const { return cdf_; }

    /**
     * @return The first index whose CDF value is >= @p u, for u in
     * [0, 1): identical to a full binary search over the CDF. The
     * guide has a power-of-two bucket count B, so u * B is exact and
     * u always lands in the bucket [b/B, (b+1)/B) that holds it.
     */
    std::uint64_t search(double u) const
    {
        const auto b = static_cast<std::size_t>(u * buckets_);
        std::uint64_t lo = guide_[b], hi = guide_[b + 1];
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

  private:
    double alpha_ = -1.0;
    double buckets_ = 0.0; //!< bit_ceil(n), as the multiplier of u
    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_; //!< buckets + 1 entries
};

/**
 * A small, fast, deterministic generator (xoshiro256**).
 *
 * We deliberately avoid std::mt19937 in hot paths: the workload
 * generators draw hundreds of millions of values per experiment. The
 * per-draw members are inline: the build has no LTO, and an
 * out-of-line call reloads and stores the state on every draw.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. The
     *  seed is mandatory: a default would let a bench or test pick up
     *  an implicit stream and silently lose SEESAW_JOBS=1
     *  reproducibility. */
    explicit Rng(std::uint64_t seed);

    /** @return The next raw 64-bit value. */
    std::uint64_t next()
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

    /** @return A uniform value in [0, bound). @p bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound)
    {
        SEESAW_ASSERT(bound > 0, "nextBounded requires bound > 0");
        // Rejection-free multiply-shift; bias is negligible for our
        // bounds.
        const __uint128_t product =
            static_cast<__uint128_t>(next()) * bound;
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** @return A uniform double in [0, 1), on the 2^-53 grid. */
    double nextDouble() { return (next() >> 11) * 0x1.0p-53; }

    /** @return True with probability @p p (clamped to [0,1]). */
    bool chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Sample from a Zipf distribution over {0, .., n-1} with exponent
     * @p alpha, using a table cached per (n, alpha).
     */
    std::uint64_t nextZipf(std::uint64_t n, double alpha)
    {
        SEESAW_ASSERT(n > 0, "nextZipf requires n > 0");
        if (n != zipf_.size() || alpha != zipf_.alpha())
            zipf_ = ZipfTable(n, alpha);
        return zipf_.search(nextDouble());
    }

    /** Sample a geometric-like reuse distance with mean @p mean; a
     *  mean <= 0 gives 0 without consuming a draw. */
    std::uint64_t nextGeometric(double mean)
    {
        if (mean <= 0.0)
            return 0;
        return geometricAt(mean, next() >> 11);
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    ZipfTable zipf_;
};

/**
 * Rng::nextGeometric for one fixed mean, drawn by table: the same
 * draw consumed and the same value returned, without a log1p on
 * almost every draw.
 *
 * geometricAt(mean, m) steps from k-1 to k at one grid point T_k, so
 * the result at m is the number of thresholds at or below m. The
 * table holds every T_k (found exactly by bisecting geometricAt) until
 * the tail above T_k has probability < 2^-14, and a guide on m's top
 * 12 bits. A guide bucket that holds no threshold answers directly;
 * otherwise the draw counts thresholds from the bucket's start. A
 * draw within kWindow grid points of a threshold, or in the tail,
 * answers with geometricAt itself, so results stay bit-identical even
 * where libm's log1p is not monotone at the ulp level.
 */
class GeometricTable
{
  public:
    explicit GeometricTable(double mean = 0.0);

    /** @return Exactly what rng.nextGeometric(mean) returns, having
     *  consumed the same draw. */
    std::uint64_t draw(Rng &rng) const
    {
        if (mean_ <= 0.0)
            return 0;
        return at(rng.next() >> 11);
    }

    /** @return geometricAt(mean, @p m), by table where it is safe. */
    std::uint64_t at(std::uint64_t m) const
    {
        const std::uint32_t g = guide_[m >> kGuideShift];
        if (!(g & kSlow)) [[likely]]
            return g;
        return atSlow(m, g & ~kSlow);
    }

    double mean() const { return mean_; }

    /** T_0 = 0, T_1, .., T_K, then kUnitGridPoints as a sentinel. */
    const std::vector<std::uint64_t> &thresholds() const
    {
        return thresholds_;
    }

    /** Draws at or above this grid point use the formula (the last
     *  tabulated threshold; kUnitGridPoints if the table is whole). */
    std::uint64_t tail() const { return tail_; }

  private:
    /** Grid points on each side of a threshold that use the formula. */
    static constexpr std::uint64_t kWindow = 1ULL << 16;
    static constexpr int kGuideBits = 12;
    static constexpr int kGuideShift = 53 - kGuideBits;
    static constexpr std::uint32_t kSlow = 1U << 31;
    /** Cap on tabulated thresholds; draws past it use the formula. */
    static constexpr std::uint64_t kMaxThresholds = 4096;

    std::uint64_t atSlow(std::uint64_t m, std::uint64_t k) const;

    double mean_;
    std::uint64_t tail_ = kUnitGridPoints;
    std::vector<std::uint64_t> thresholds_;
    /** Per bucket: thresholds at or below its first grid point, with
     *  kSlow set unless that count answers every draw in the bucket. */
    std::vector<std::uint32_t> guide_;
};

} // namespace seesaw

#endif // SEESAW_COMMON_RANDOM_HH
