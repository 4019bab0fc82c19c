/**
 * @file
 * Baseline L1 designs SEESAW is evaluated against: the traditional
 * highly-associative VIPT cache (optionally with MRU way prediction,
 * Fig 15) and the PIPT alternative with a serialised TLB (Fig 14).
 * Both read every way of the set; PIPT is the same cache built at the
 * PIPT latency, which adds the serial TLB lookup but lets the
 * associativity be chosen freely.
 */

#ifndef SEESAW_CACHE_BASELINE_CACHES_HH
#define SEESAW_CACHE_BASELINE_CACHES_HH

#include "cache/l1_cache.hh"

namespace seesaw {

/** Configuration shared by the baseline caches. */
struct BaselineL1Config
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 64;
    bool wayPrediction = false; //!< MRU way predictor
    ReplacementParams replacement; //!< tag-store victim policy
};

/**
 * A full-set L1: every lookup reads all ways of the set.
 */
class ViptCache final : public L1Cache
{
  public:
    /** @param hit_cycles LatencyTable::basePageCycles for VIPT (Table
     *  III), LatencyTable::piptCycles for PIPT. */
    ViptCache(const BaselineL1Config &config, unsigned hit_cycles);

    L1AccessResult access(const L1Access &req) override;
};

} // namespace seesaw

#endif // SEESAW_CACHE_BASELINE_CACHES_HH
