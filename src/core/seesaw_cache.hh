/**
 * @file
 * The SEESAW L1 data cache (Section IV, Fig 4).
 *
 * SEESAW way-partitions a conventional VIPT cache and uses the virtual
 * address bits immediately above the set index (bit 12 upward) as a
 * partition index. For accesses the TFT confirms as superpage-backed,
 * those bits are page-offset bits — identical in the physical address —
 * so only one partition's ways need to be read: a faster, cheaper
 * lookup. TFT misses (base pages, or untracked superpages) read the
 * speculated partition first and the remaining partitions in the next
 * cycle, matching baseline VIPT latency and energy (Table I).
 *
 * With the `4way` insertion policy every line resides in the partition
 * named by its *physical* address, so coherence probes — which carry
 * physical addresses — always read a single partition, for base pages
 * and superpages alike (Section IV-C1).
 */

#ifndef SEESAW_CORE_SEESAW_CACHE_HH
#define SEESAW_CORE_SEESAW_CACHE_HH

#include "cache/l1_cache.hh"
#include "core/tft.hh"
#include "model/latency_table.hh"

namespace seesaw {

/** Line insertion policies (Section IV-B1). */
enum class InsertionPolicy : std::uint8_t
{
    /** Victim always drawn from the line's (PA-indexed) partition.
     *  Chosen by the paper: correct under base/super aliasing, cheaper
     *  installs, and partition-scoped coherence lookups. */
    FourWay,

    /** Victim drawn set-wide for base pages, partition-local for
     *  superpages. Slightly better hit rate (~1%) but loses the
     *  coherence benefit and can install the same line twice when a
     *  page is mapped both as a base page and as a superpage. */
    FourWayEightWay,
};

/** SEESAW cache configuration. */
struct SeesawConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 64;
    unsigned partitionWays = 4; //!< paper: 16KB / 4-way partitions
    double freqGhz = 1.33;
    InsertionPolicy policy = InsertionPolicy::FourWay;
    bool wayPrediction = false; //!< combined WP+SEESAW (Fig 15)
    unsigned tftEntries = 16;
    unsigned tftAssoc = 1; //!< 1 = the paper's direct-mapped TFT
    ReplacementParams replacement; //!< tag-store victim policy; the
                                   //!< TFT shares it with a
                                   //!< decorrelated Random seed
};

/**
 * The SEESAW L1 data cache.
 */
class SeesawCache final : public L1Cache
{
  public:
    SeesawCache(const SeesawConfig &config, const LatencyTable &latency);

    L1AccessResult access(const L1Access &req) override;

    /** Partition-scoped under the 4way policy; looks up through the
     *  tag store's lookup paths, which touch replacement state. */
    L1ProbeResult probe(Addr pa, bool invalidating) override;

    /** Speculative install pinned to the PA-named partition so a
     *  prefetched line can never violate partition placement, even
     *  under the 4way-8way policy. */
    Eviction prefetchFill(Addr pa, PageSize page_size) override;

    /** The page-size predictor; the TLB hierarchy's 2MB-fill hook and
     *  the OS's invlpg path drive it. */
    Tft &tft() { return tft_; }
    const Tft &tft() const { return tft_; }

    unsigned numPartitions() const { return tags().numPartitions(); }
    const SeesawConfig &config() const { return config_; }

    /** Coherence probes serviced (partition-scoped on a TFT hit). */
    std::uint64_t probes() const { return stProbes_->count(); }

  private:
    SeesawConfig config_;
    Tft tft_;

    // Hot-path stat handles, registered once at construction: several
    // of these names are long enough that building a std::string key
    // per access would heap-allocate on the hot path.
    StatScalar *stSuperRefs_;
    StatScalar *stSuperRefsTftMiss_;
    StatScalar *stSuperRefsTftMissL1Hit_;
    StatScalar *stSuperRefsTftMissL1Miss_;
    StatScalar *stProbes_;
    StatScalar *stProbeHits_;
};

} // namespace seesaw

#endif // SEESAW_CORE_SEESAW_CACHE_HH
