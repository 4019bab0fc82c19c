#include "coherence/fabric.hh"

#include "cache/moesi.hh"
#include "common/logging.hh"

namespace seesaw {

DirectoryFabric::DirectoryFabric(unsigned cores, unsigned probe_cycles,
                                 EnergyModel &energy)
    : directory_(cores), probeCycles_(probe_cycles), energy_(energy)
{
}

unsigned
DirectoryFabric::sendProbes(const ExactDirectory::ProbeList &probes,
                            Addr pa)
{
    if (probes.targets.empty())
        return 0;

    for (CoreId target : probes.targets) {
        const L1ProbeResult res =
            l1s_[target]->probe(pa, probes.invalidating);
        ++probes_;
        probeHits_ += res.hit ? 1 : 0;
        energy_.addL1Lookup(l1s_[target]->tags().sizeBytes(),
                            l1s_[target]->tags().assoc(), res.waysRead,
                            /*coherent=*/true);
        if (probes.invalidating && res.hit) {
            ++invalidations_;
            // The private L2 copy goes too (inclusive-ish fiction).
            l2s_[target]->invalidate(pa);
        }
    }
    // Directory indirection + probe round trip.
    return probeCycles_;
}

FabricPreAccess
DirectoryFabric::preAccess(CoreId core, Addr pa, AccessType type)
{
    // Writes invalidate remote copies BEFORE the local access; read
    // misses may be supplied by a dirty remote owner.
    FabricPreAccess pre;
    pre.wasHeld = directory_.holds(core, pa);
    if (type == AccessType::Write) {
        const auto probes = directory_.onWrite(core, pa);
        pre.ownerSupplied = probes.ownerSupplies;
        pre.cycles = sendProbes(probes, pa);
    } else if (!pre.wasHeld) {
        const auto probes = directory_.onReadMiss(core, pa);
        pre.ownerSupplied = probes.ownerSupplies;
        pre.cycles = sendProbes(probes, pa);
    }
    ownerSupplies_ += pre.ownerSupplied ? 1 : 0;
    return pre;
}

void
DirectoryFabric::postAccess(CoreId core, Addr pa, AccessType type,
                            const L1AccessResult &res,
                            const FabricPreAccess &pre)
{
    (void)pre;
    const bool write = type == AccessType::Write;
    if (!res.hit) {
        directory_.recordFill(core, pa, write);
        if (!write && directory_.sharerCount(pa) > 1) {
            // The L1 installed the read fill Exclusive, but other
            // copies exist; MOESI grants E only to the sole copy.
            if (CacheLine *line = l1s_[core]->tags().findLine(pa))
                line->state = MoesiProtocol::onLocalReadFill(
                    /*remote_sharers=*/true);
        }
        if (res.eviction.valid) {
            directory_.recordEviction(
                core, res.eviction.lineAddr *
                          l1s_[core]->tags().lineBytes());
        }
    } else if (write) {
        // Refresh ownership (or re-register a warmup-era alias the
        // directory never saw fill).
        directory_.recordFill(core, pa, true);
    }
}

SnoopFabric::SnoopFabric(unsigned cores, unsigned probe_cycles,
                         EnergyModel &energy)
    : cores_(cores), probeCycles_(probe_cycles), energy_(energy)
{
}

unsigned
SnoopFabric::broadcast(CoreId requester, Addr pa, bool invalidating,
                       bool &owner_supplied)
{
    for (CoreId target = 0; target < cores_; ++target) {
        if (target == requester)
            continue;
        const L1ProbeResult res = l1s_[target]->probe(pa, invalidating);
        ++probes_;
        probeHits_ += res.hit ? 1 : 0;
        owner_supplied |= res.wasDirty;
        energy_.addL1Lookup(l1s_[target]->tags().sizeBytes(),
                            l1s_[target]->tags().assoc(), res.waysRead,
                            /*coherent=*/true);
        if (invalidating && res.hit) {
            ++invalidations_;
            l2s_[target]->invalidate(pa);
        }
    }
    return probeCycles_;
}

FabricPreAccess
SnoopFabric::preAccess(CoreId core, Addr pa, AccessType type)
{
    FabricPreAccess pre;
    const CacheLine *local = l1s_[core]->tags().findLine(pa);
    pre.wasHeld = local != nullptr;
    if (type == AccessType::Write) {
        // A write completes silently only on an M/E copy; a miss or
        // an S/O copy (an upgrade) broadcasts an invalidating
        // transaction.
        if (!local || MoesiProtocol::writeNeedsUpgrade(local->state)) {
            pre.cycles =
                broadcast(core, pa, /*invalidating=*/true,
                          pre.ownerSupplied);
        }
    } else if (!local) {
        // Read miss: snoop everyone; a dirty owner supplies the data.
        pre.cycles = broadcast(core, pa, /*invalidating=*/false,
                               pre.ownerSupplied);
    }
    ownerSupplies_ += pre.ownerSupplied ? 1 : 0;
    return pre;
}

void
SnoopFabric::postAccess(CoreId core, Addr pa, AccessType type,
                        const L1AccessResult &res,
                        const FabricPreAccess &pre)
{
    (void)pre;
    // Snooping is requester-driven: no global state to update, but a
    // read fill that coexists with remote copies must not keep E.
    if (!res.hit && type != AccessType::Write) {
        bool remote_copy = false;
        for (CoreId target = 0; target < cores_ && !remote_copy;
             ++target) {
            if (target != core && l1s_[target]->tags().peek(pa).hit)
                remote_copy = true;
        }
        if (remote_copy) {
            if (CacheLine *line = l1s_[core]->tags().findLine(pa))
                line->state = MoesiProtocol::onLocalReadFill(
                    /*remote_sharers=*/true);
        }
    }
}

} // namespace seesaw
