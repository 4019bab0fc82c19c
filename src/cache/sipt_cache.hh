/**
 * @file
 * A speculatively-indexed, physically-tagged (SIPT) L1 cache — the
 * related design the paper calls "closest in spirit" to SEESAW
 * (Section VII; Zheng et al., HPCA 2018).
 *
 * SIPT breaks the VIPT set-count ceiling differently: it uses k
 * virtual-address bits *above* the page offset as extra index bits
 * (2^k times the sets at 1/2^k the associativity) and speculates that
 * those bits survive translation. A per-page predictor supplies the
 * expected physical bits; when the TLB result disagrees, the access is
 * replayed at the correct index (a rollback — the mechanism the SEESAW
 * paper contrasts against its speculation-free TFT guarantee).
 *
 * Lines are placed by their *physical* index bits, so coherence probes
 * index directly and mispeculation can never produce duplicates.
 */

#ifndef SEESAW_CACHE_SIPT_CACHE_HH
#define SEESAW_CACHE_SIPT_CACHE_HH

#include <vector>

#include "cache/l1_cache.hh"
#include "model/latency_table.hh"

namespace seesaw {

/** SIPT configuration. */
struct SiptConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 2;       //!< reduced: sets grow instead (e.g.,
                              //!< 32KB 2-way = 256 sets)
    unsigned lineBytes = 64;
    double freqGhz = 1.33;
    unsigned predictorEntries = 512; //!< per-page index-bit predictor
    unsigned replayPenaltyCycles = 2; //!< re-access at the right index
    ReplacementParams replacement;    //!< tag-store victim policy
};

/**
 * The SIPT L1 data cache. A correct speculation hits at the array
 * latency (fastHitCycles); a replay adds the penalty (baseHitCycles).
 */
class SiptCache final : public L1Cache
{
  public:
    SiptCache(const SiptConfig &config, const LatencyTable &latency);

    L1AccessResult access(const L1Access &req) override;

    /** Bits of the index that lie above the page offset. */
    unsigned speculativeBits() const { return specBits_; }

    /** Fraction of accesses whose speculated index bits were right. */
    double
    predictionAccuracy() const
    {
        const double total = stats().get("accesses");
        return total > 0.0 ? stats().get("spec_correct") / total : 0.0;
    }

    /** Accesses whose speculated index bits were wrong (replays). */
    std::uint64_t specWrong() const { return stSpecWrong_->count(); }

  private:
    struct PredictorEntry
    {
        bool valid = false;
        Addr vpn = 0;
        unsigned bits = 0; //!< last observed PA index bits above 4KB
    };

    SiptConfig config_;
    unsigned specBits_; //!< index bits above bit 11
    std::vector<PredictorEntry> predictor_;

    // Hot-path stat handles (registered once; see common/stats.hh).
    StatScalar *stSpecCorrect_;
    StatScalar *stSpecWrong_;

    /** PA bits [11+specBits : 12]. */
    unsigned
    extraBitsOf(Addr addr) const
    {
        return static_cast<unsigned>((addr >> 12) &
                                     ((1u << specBits_) - 1));
    }

    /** Predict the extra index bits for @p va. */
    unsigned predictBits(Addr va) const;

    /** Train the predictor with the observed translation. */
    void train(Addr va, unsigned pa_bits);
};

} // namespace seesaw

#endif // SEESAW_CACHE_SIPT_CACHE_HH
