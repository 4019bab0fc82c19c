#include "coherence/snoop_bus.hh"

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
    head_ = (head_ + 1) % ring_.size();
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

SnoopBus::SnoopBus(CoherenceKind kind, double snoop_absent_factor,
                   std::uint64_t seed)
    : kind_(kind), snoopAbsentFactor_(snoop_absent_factor), rng_(seed)
{
}

void
SnoopBus::generate(unsigned directed, double invalidating_fraction,
                   const ResidentLineTracker &resident,
                   std::vector<ProbeRequest> &probes)
{
    probes.clear();
    if (resident.empty())
        return;

    for (unsigned i = 0; i < directed; ++i) {
        ProbeRequest p;
        p.pa = resident.sample(rng_);
        p.invalidating = rng_.chance(invalidating_fraction);
        p.expectedResident = true;
        probes.push_back(p);
    }

    if (kind_ == CoherenceKind::Snoopy) {
        // Broadcast fabric: remote misses also snoop this L1. Their
        // addresses are unrelated to our working set, so we synthesise
        // them by perturbing resident lines — overwhelmingly absent.
        absentCarry_ += directed * snoopAbsentFactor_;
        while (absentCarry_ >= 1.0) {
            absentCarry_ -= 1.0;
            ProbeRequest p;
            const Addr base = resident.sample(rng_);
            p.pa = base ^ ((1 + rng_.nextBounded(1 << 20)) << 6);
            p.invalidating = rng_.chance(invalidating_fraction);
            p.expectedResident = false;
            probes.push_back(p);
        }
    }
}

} // namespace seesaw
