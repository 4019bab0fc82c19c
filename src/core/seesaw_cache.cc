#include "core/seesaw_cache.hh"

#include "cache/moesi.hh"
#include "common/logging.hh"

namespace seesaw {

SeesawCache::SeesawCache(const SeesawConfig &config,
                         const LatencyTable &latency)
    : L1Cache("seesaw",
              SetAssocCache(config.sizeBytes, config.assoc,
                            config.lineBytes,
                            config.assoc / config.partitionWays,
                            config.replacement),
              latency.basePageCycles(config.sizeBytes, config.assoc,
                                     config.freqGhz),
              latency.superpageCycles(config.sizeBytes, config.assoc,
                                      config.partitionWays,
                                      config.freqGhz),
              config.wayPrediction),
      config_(config),
      tft_(config.tftEntries, config.tftAssoc,
           withSeedSalt(config.replacement, 0x7f7ULL)),
      stSuperRefs_(&stats().scalar("superpage_refs")),
      stSuperRefsTftMiss_(&stats().scalar("superpage_refs_tft_miss")),
      stSuperRefsTftMissL1Hit_(
          &stats().scalar("superpage_refs_tft_miss_l1_hit")),
      stSuperRefsTftMissL1Miss_(
          &stats().scalar("superpage_refs_tft_miss_l1_miss")),
      stProbes_(&stats().scalar("probes")),
      stProbeHits_(&stats().scalar("probe_hits"))
{
    SEESAW_ASSERT(config.assoc % config.partitionWays == 0,
                  "partition width must divide associativity");
    // The partition index must sit above the 4KB page offset (so it is
    // only trusted for superpages) and inside the 2MB page offset.
    SEESAW_ASSERT(tags().partitionLowBit() == 12,
                  "SEESAW requires sets x linesize == 4KB; got partition "
                  "bit ", tags().partitionLowBit());
}

L1AccessResult
SeesawCache::access(const L1Access &req)
{
    L1AccessResult res;
    SetAssocCache &tags = this->tags();

    // The TFT is probed in parallel with set selection (and with the
    // TLB): honour a pre-TLB probe when the caller supplies one.
    res.tftHit = req.tftProbe >= 0 ? req.tftProbe == 1
                                   : tft_.lookup(req.va);

    const bool super_ref = isSuperpage(req.pageSize);
    if (super_ref) {
        ++*stSuperRefs_;
        if (!res.tftHit)
            ++*stSuperRefsTftMiss_;
    } else {
        // A TFT hit guarantees a superpage-backed region: entries are
        // only created from 2MB TLB fills and are invalidated on
        // splinters and context switches.
        SEESAW_ASSERT(!res.tftHit, "TFT hit on a base-page access");
    }

    const unsigned set = tags.setIndex(req.pa);
    const unsigned partition = tags.partitionIndex(req.pa);

    TagLookup look;
    if (res.tftHit) {
        // Fast path: the VA's partition bits are page-offset bits, so
        // they equal the PA's; one partition suffices (Table I rows
        // 1-2).
        SEESAW_ASSERT(tags.partitionIndex(req.va) == partition,
                      "superpage VA/PA partition bits must agree");
        look = tags.lookupPartition(req.pa, partition);
        res.fastPath = true;
        res.latencyCycles = fastHitCycles();
        res.waysRead = config_.partitionWays;
    } else {
        // Slow path: the speculated partition is read first; the TFT
        // miss signal triggers a read of the remaining partitions in
        // the next cycle (Table I rows 3-4). Same latency and energy
        // as baseline VIPT.
        look = tags.lookup(req.pa);
        res.latencyCycles = baseHitCycles();
        res.waysRead = config_.assoc;
    }

    // Optional combined way prediction (Section VI-F): SEESAW hands the
    // predictor the right partition, shrinking both the energised ways
    // and the misprediction penalty for superpage accesses.
    if (const MruWayPredictor *wp = wayPredictor()) {
        scorePrediction(look,
                        res.tftHit ? wp->predictInPartition(set, partition)
                                   : wp->predict(set),
                        res);
    }

    // A miss installs partition-scoped under the 4way policy (and for
    // superpages under 4way-8way): the victim partition is named by the
    // *physical* address — the placement invariant coherence relies on.
    const bool partition_fill =
        config_.policy == InsertionPolicy::FourWay || super_ref;
    complete(req, look,
             partition_fill ? SetAssocCache::InsertScope::Partition
                            : SetAssocCache::InsertScope::FullSet,
             res);
    if (super_ref && !res.tftHit) {
        if (res.hit)
            ++*stSuperRefsTftMissL1Hit_;
        else
            ++*stSuperRefsTftMissL1Miss_;
    }
    return res;
}

L1ProbeResult
SeesawCache::probe(Addr pa, bool invalidating)
{
    L1ProbeResult res;
    SetAssocCache &tags = this->tags();
    ++*stProbes_;

    // The search's own hit way takes the probe: under 4way no copy
    // can sit outside the PA-named partition, and under 4way-8way the
    // search already spans the set.
    TagLookup look;
    if (config_.policy == InsertionPolicy::FourWay) {
        // Placement invariant: the PA names the only partition the
        // line can live in — every coherence lookup is 4-way.
        look = tags.lookupPartition(pa, tags.partitionIndex(pa));
        res.waysRead = config_.partitionWays;
    } else {
        // 4way-8way sacrifices this: base-page lines can sit anywhere
        // in the set, so probes must energise every way.
        look = tags.lookup(pa);
        res.waysRead = config_.assoc;
    }

    if (look.hit) {
        ++*stProbeHits_;
        probeWay(tags.setIndex(pa), look.way, invalidating, res);
    }
    return res;
}

Eviction
SeesawCache::prefetchFill(Addr pa, PageSize page_size)
{
    return tags().insert(pa, SetAssocCache::InsertScope::Partition,
                         MoesiProtocol::onLocalFill(AccessType::Read),
                         page_size, /*prefetched=*/true);
}

} // namespace seesaw
