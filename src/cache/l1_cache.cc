#include "cache/l1_cache.hh"

#include "cache/moesi.hh"
#include "common/logging.hh"

namespace seesaw {

L1Cache::L1Cache(const char *stat_group, SetAssocCache tags,
                 unsigned base_hit_cycles, unsigned fast_hit_cycles,
                 bool way_prediction)
    : tags_(std::move(tags)),
      stats_(stat_group),
      baseHitCycles_(base_hit_cycles),
      fastHitCycles_(fast_hit_cycles),
      stAccesses_(&stats_.scalar("accesses")),
      stHits_(&stats_.scalar("hits")),
      stMisses_(&stats_.scalar("misses")),
      stSweepEvictions_(&stats_.scalar("sweep_evictions"))
{
    if (way_prediction) {
        predictor_ = std::make_unique<MruWayPredictor>(
            tags_.numSets(), tags_.assoc(), tags_.numPartitions());
    }
}

void
L1Cache::complete(const L1Access &req, const TagLookup &look,
                  SetAssocCache::InsertScope scope, L1AccessResult &res)
{
    ++*stAccesses_;
    res.hit = look.hit;
    const unsigned set = tags_.setIndex(req.pa);

    if (look.hit) {
        ++*stHits_;
        res.wasPrefetched = look.wasPrefetched;
        if (req.type == AccessType::Write) {
            CacheLine &line = tags_.lineAt(set, look.way);
            line.state = MoesiProtocol::onLocalWrite(line.state);
        }
        if (predictor_)
            predictor_->update(set, look.way);
        return;
    }

    ++*stMisses_;
    res.eviction = tags_.insert(req.pa, scope,
                                MoesiProtocol::onLocalFill(req.type),
                                req.pageSize);
    res.installWays = scope == SetAssocCache::InsertScope::Partition
                          ? tags_.waysPerPartition()
                          : tags_.assoc();
    if (predictor_) {
        const TagLookup filled = tags_.peek(req.pa);
        SEESAW_ASSERT(filled.hit, "fill must be visible");
        predictor_->update(set, filled.way);
    }
}

void
L1Cache::scorePrediction(const TagLookup &look, unsigned predicted,
                         L1AccessResult &res)
{
    res.wpUsed = true;
    // Way prediction gates only the data array: all tags compare in
    // parallel, so a mispredict is known at tag-match time and costs
    // one extra data-array read — dependents are rescheduled with a
    // bubble, not a full replay (Powell et al.).
    if (look.hit && look.way == predicted) {
        res.wpCorrect = true;
        res.waysRead = 1;
        predictor_->recordOutcome(true);
    } else {
        res.wpCorrect = false;
        res.latencyCycles += 1;
        res.waysRead = 2; // predicted way + the correct way
        res.fastPath = false;
        predictor_->recordOutcome(false);
    }
}

L1ProbeResult
L1Cache::probe(Addr pa, bool invalidating)
{
    L1ProbeResult res;
    // Coherence probes carry a physical address; without a partition
    // guarantee the probe energises every way of the set.
    res.waysRead = tags_.assoc();
    const TagLookup look = tags_.peek(pa);
    if (look.hit)
        probeWay(tags_.setIndex(pa), look.way, invalidating, res);
    return res;
}

void
L1Cache::probeWay(unsigned set, unsigned way, bool invalidating,
                  L1ProbeResult &res)
{
    CacheLine &line = tags_.lineAt(set, way);
    res.hit = true;
    res.wasDirty = MoesiProtocol::suppliesData(line.state);
    if (invalidating)
        tags_.invalidateWay(set, way);
    else
        line.state = MoesiProtocol::onRemoteRead(line.state);
}

Eviction
L1Cache::prefetchFill(Addr pa, PageSize page_size)
{
    return tags_.insert(pa, SetAssocCache::InsertScope::FullSet,
                        MoesiProtocol::onLocalFill(AccessType::Read),
                        page_size, /*prefetched=*/true);
}

unsigned
L1Cache::sweepRegion(Addr pa_base, std::uint64_t bytes)
{
    const unsigned evicted = tags_.sweepRegion(pa_base, bytes);
    *stSweepEvictions_ += evicted;
    return evicted;
}

} // namespace seesaw
