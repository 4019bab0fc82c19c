#include "cache/baseline_caches.hh"

namespace seesaw {

ViptCache::ViptCache(const BaselineL1Config &config, unsigned hit_cycles)
    : L1Cache("vipt",
              SetAssocCache(config.sizeBytes, config.assoc,
                            config.lineBytes, 1, config.replacement),
              hit_cycles, hit_cycles, config.wayPrediction)
{
}

L1AccessResult
ViptCache::access(const L1Access &req)
{
    L1AccessResult res;
    const TagLookup look = tags().lookup(req.pa);
    res.latencyCycles = baseHitCycles();
    res.waysRead = tags().assoc();
    res.fastPath = look.hit;
    if (const MruWayPredictor *wp = wayPredictor())
        scorePrediction(look, wp->predict(tags().setIndex(req.pa)), res);
    complete(req, look, SetAssocCache::InsertScope::FullSet, res);
    return res;
}

} // namespace seesaw
