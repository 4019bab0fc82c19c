#include "coherence/probe_engine.hh"

#include "common/logging.hh"

namespace seesaw {

ResidentLineTracker::ResidentLineTracker(std::size_t capacity)
    : ring_(capacity, 0)
{
    SEESAW_ASSERT(capacity > 0, "tracker capacity must be positive");
}

void
ResidentLineTracker::note(Addr pa)
{
    ring_[head_] = pa & ~Addr{63};
    if (++head_ == ring_.size()) // no division on every L1 access
        head_ = 0;
    if (count_ < ring_.size())
        ++count_;
}

Addr
ResidentLineTracker::sample(Rng &rng) const
{
    if (count_ == 0)
        return 0;
    return ring_[rng.nextBounded(count_)];
}

ProbeEngine::ProbeEngine(const ProbeEngineParams &params, L1Cache &l1,
                         EnergyModel &energy)
    : params_(params), l1_(l1), energy_(energy), rng_(params.seed),
      stats_("probe_engine"),
      stProbes_(&stats_.scalar("probes")),
      stProbeHits_(&stats_.scalar("probe_hits")),
      stInvalidations_(&stats_.scalar("invalidations")),
      stDirtySupplies_(&stats_.scalar("dirty_supplies"))
{
    directedRate_ = params_.systemProbesPerKiloInstr +
                    params_.sharingProbesPerKiloInstrPerThread *
                        params_.remoteThreads * params_.sharedFraction;
}

void
ProbeEngine::tick(std::uint64_t instructions)
{
    directedCarry_ +=
        directedRate_ * static_cast<double>(instructions) / 1000.0;
    if (directedCarry_ < 1.0)
        return;

    const auto due = static_cast<unsigned>(directedCarry_);
    directedCarry_ -= due;
    if (resident_.empty())
        return;

    for (unsigned i = 0; i < due; ++i) {
        const Addr pa = resident_.sample(rng_);
        issue(pa, rng_.chance(params_.invalidatingFraction));
    }

    if (params_.fabric == CoherenceKind::Snoopy) {
        // Broadcast fabric: remote misses also snoop this L1. Their
        // addresses are unrelated to our working set, so we synthesise
        // them by perturbing resident lines — overwhelmingly absent.
        absentCarry_ += due * params_.snoopAbsentFactor;
        while (absentCarry_ >= 1.0) {
            absentCarry_ -= 1.0;
            const Addr base = resident_.sample(rng_);
            const Addr pa = base ^ ((1 + rng_.nextBounded(1 << 20)) << 6);
            issue(pa, rng_.chance(params_.invalidatingFraction));
        }
    }
}

void
ProbeEngine::issue(Addr pa, bool invalidating)
{
    const L1ProbeResult res = l1_.probe(pa, invalidating);
    ++*stProbes_;
    if (res.hit)
        ++*stProbeHits_;
    if (invalidating && res.hit)
        ++*stInvalidations_;
    if (res.wasDirty)
        ++*stDirtySupplies_;
    energy_.addL1Lookup(l1_.tags().sizeBytes(), l1_.tags().assoc(),
                        res.waysRead, /*coherent=*/true);
}

} // namespace seesaw
