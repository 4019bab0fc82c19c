#include "cache/sipt_cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace seesaw {

SiptCache::SiptCache(const SiptConfig &config,
                     const LatencyTable &latency)
    : L1Cache("sipt",
              SetAssocCache(config.sizeBytes, config.assoc,
                            config.lineBytes, 1, config.replacement),
              latency.sram().accessLatencyCycles(
                  config.sizeBytes, config.assoc, config.freqGhz) +
                  config.replayPenaltyCycles,
              latency.sram().accessLatencyCycles(
                  config.sizeBytes, config.assoc, config.freqGhz),
              /*way_prediction=*/false),
      config_(config),
      predictor_(config.predictorEntries),
      stSpecCorrect_(&stats().scalar("spec_correct")),
      stSpecWrong_(&stats().scalar("spec_wrong"))
{
    // How many index bits exceed the 4KB page offset?
    const unsigned set_span_bits =
        log2Floor(tags().numSets()) + log2Floor(config.lineBytes);
    SEESAW_ASSERT(set_span_bits > 12,
                  "SIPT needs more sets than VIPT allows; use a lower "
                  "associativity");
    specBits_ = set_span_bits - 12;
    SEESAW_ASSERT(config.predictorEntries > 0, "empty predictor");
}

unsigned
SiptCache::predictBits(Addr va) const
{
    const Addr vpn = va >> 12;
    const PredictorEntry &e =
        predictor_[vpn % config_.predictorEntries];
    if (e.valid && e.vpn == vpn)
        return e.bits;
    // Untrained: speculate identity (the VA's own bits) — correct for
    // superpages by construction.
    return extraBitsOf(va);
}

void
SiptCache::train(Addr va, unsigned pa_bits)
{
    const Addr vpn = va >> 12;
    PredictorEntry &e = predictor_[vpn % config_.predictorEntries];
    e.valid = true;
    e.vpn = vpn;
    e.bits = pa_bits;
}

L1AccessResult
SiptCache::access(const L1Access &req)
{
    L1AccessResult res;

    // Speculate the index; the TLB reveals the truth in parallel.
    const unsigned predicted = predictBits(req.va);
    const unsigned actual = extraBitsOf(req.pa);
    const bool correct = predicted == actual;
    if (correct)
        ++*stSpecCorrect_;
    else
        ++*stSpecWrong_;
    train(req.va, actual);

    // Lines live at their physical index; a wrong speculation reads
    // the wrong set first and replays at the right one (rollback).
    // Probes need no override: the physical index sends them straight
    // to the right (small) set.
    const TagLookup look = tags().lookup(req.pa);
    res.waysRead = correct ? config_.assoc : 2 * config_.assoc;
    res.latencyCycles = correct ? fastHitCycles() : baseHitCycles();
    res.fastPath = correct;
    // The mispeculation is only discovered when the TLB result
    // arrives at tag-compare time: a late discovery, i.e., the full
    // squash-and-replay cost the SEESAW paper contrasts with its
    // guarantee-based TFT.
    res.lateDiscovery = !correct;

    complete(req, look, SetAssocCache::InsertScope::FullSet, res);
    return res;
}

} // namespace seesaw
