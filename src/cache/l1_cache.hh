/**
 * @file
 * The L1 data-cache skeleton shared by every design: the baseline VIPT
 * cache (also the PIPT alternative, built at the serial-TLB latency),
 * the SIPT related design, and the SEESAW cache.
 *
 * Timing contract: access() reports the L1 lookup latency and how many
 * ways were read (for energy); on a miss it installs the line (the
 * caller is responsible for charging the outer-hierarchy fetch) and
 * reports any displaced dirty line for write-back accounting.
 */

#ifndef SEESAW_CACHE_L1_CACHE_HH
#define SEESAW_CACHE_L1_CACHE_HH

#include <memory>

#include "cache/set_assoc_cache.hh"
#include "cache/way_predictor.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace seesaw {

/** One CPU-side L1 access. */
struct L1Access
{
    Addr va = 0;
    Addr pa = 0;
    PageSize pageSize = PageSize::Base4KB;
    AccessType type = AccessType::Read;

    /** SEESAW only: the TFT decision probed *before* the TLB lookup
     *  could refresh the entry — hardware probes the TFT and the L1
     *  TLBs in parallel, so the cache must not see a TFT state newer
     *  than the probe. -1 = not pre-probed (the cache probes itself;
     *  fine for standalone use). */
    int tftProbe = -1;
};

/** Outcome of a CPU-side L1 access. */
struct L1AccessResult
{
    bool hit = false;
    unsigned latencyCycles = 0; //!< lookup latency (hit, or to detect miss)
    unsigned waysRead = 0;      //!< data/tag ways energised
    bool fastPath = false;      //!< finished at fastHitCycles()
    bool tftHit = false;        //!< SEESAW only
    bool wpUsed = false;        //!< way predictor consulted
    bool wpCorrect = false;     //!< way predictor was right

    /** True when the core learns the final latency late (at tag
     *  compare: misses, way-predictor mispredicts). TFT-signalled slow
     *  hits are discovered within the first cycle — the scheduler can
     *  cancel the fast wakeup with a bubble instead of a full
     *  squash-and-replay. */
    bool lateDiscovery = false;
    bool wasPrefetched = false; //!< hit consumed a prefetched line
    Eviction eviction;          //!< line displaced by the miss fill
    unsigned installWays = 0;   //!< ways tracked by replacement on fill
};

/** Outcome of a coherence probe. */
struct L1ProbeResult
{
    bool hit = false;
    unsigned waysRead = 0;
    bool wasDirty = false; //!< probe found a dirty (M/O) line
};

/**
 * The L1 skeleton every design shares: one tag store, one stat set, an
 * optional MRU way predictor, and the hit/fill/probe tail. A design
 * supplies its constructor and access(): which ways the lookup reads
 * and at what latency. Line states follow MoesiProtocol.
 */
class L1Cache
{
  public:
    virtual ~L1Cache() = default;

    /** Perform one CPU access; installs the line on a miss. */
    virtual L1AccessResult access(const L1Access &req) = 0;

    /**
     * Coherence probe by physical address. The default reads the full
     * set and leaves replacement state untouched.
     * @param pa Probed address.
     * @param invalidating True for invalidation probes (line dropped),
     *        false for read/downgrade probes.
     */
    virtual L1ProbeResult probe(Addr pa, bool invalidating);

    /**
     * Install @p pa speculatively on behalf of a prefetch: a
     * demand-like fill tagged as prefetched. The caller has already
     * checked residency and legality. SEESAW overrides this to force
     * the PA-named partition so speculative lines never violate
     * partition placement.
     * @return A snapshot of the displaced line, if any.
     */
    virtual Eviction prefetchFill(Addr pa, PageSize page_size);

    /** Slow (baseline) hit latency the scheduler may assume. */
    unsigned baseHitCycles() const { return baseHitCycles_; }

    /** Fast hit latency (equals baseHitCycles for VIPT and PIPT). */
    unsigned fastHitCycles() const { return fastHitCycles_; }

    /** Evict all lines in [pa_base, pa_base+bytes): promotion sweep. */
    unsigned sweepRegion(Addr pa_base, std::uint64_t bytes);

    /** The underlying tag store (tests and directory bookkeeping). */
    const SetAssocCache &tags() const { return tags_; }
    SetAssocCache &tags() { return tags_; }

    /** Per-cache statistics. */
    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

    /** Way-predictor state (null unless way prediction was set). */
    const MruWayPredictor *
    wayPredictor() const
    {
        return predictor_.get();
    }

  protected:
    /** @param way_prediction Attach an MRU way predictor covering
     *  every set, way and partition of @p tags. */
    L1Cache(const char *stat_group, SetAssocCache tags,
            unsigned base_hit_cycles, unsigned fast_hit_cycles,
            bool way_prediction);

    /** The shared tail of access(): count the access, then apply a
     *  write to the hit line or fill the miss into @p scope, and train
     *  the way predictor with the way that hit or was filled. */
    void complete(const L1Access &req, const TagLookup &look,
                  SetAssocCache::InsertScope scope, L1AccessResult &res);

    /** Score the way predictor's guess @p predicted against @p look:
     *  a correct guess energises one way, a mispredict one extra. */
    void scorePrediction(const TagLookup &look, unsigned predicted,
                         L1AccessResult &res);

    /** Apply a probe to @p pa's line, if resident: invalidate it
     *  through the tag store or downgrade it for a remote read. */
    void probeLine(Addr pa, bool invalidating, L1ProbeResult &res);

  private:
    SetAssocCache tags_;
    StatGroup stats_;
    std::unique_ptr<MruWayPredictor> predictor_;
    unsigned baseHitCycles_;
    unsigned fastHitCycles_;

    // Hot-path stat handles (registered once; see common/stats.hh).
    StatScalar *stAccesses_;
    StatScalar *stHits_;
    StatScalar *stMisses_;
    StatScalar *stSweepEvictions_;
};

} // namespace seesaw

#endif // SEESAW_CACHE_L1_CACHE_HH
