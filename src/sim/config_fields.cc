#include "sim/config_fields.hh"

namespace seesaw {

void
writeFrontEndFields(const SystemConfig &c, FieldWriter &w)
{
    w.put(c.cores);
    w.put(c.seed);
    w.put(c.instructions);
    w.put(c.warmupInstructions);
    w.put(c.contextSwitchInterval);
    w.put(c.promotionInterval);
    w.put(c.splinterInterval);
    w.put(c.useOneGbHeap);
    w.put(c.modelInstructionCache);
    w.put(c.codeThpEligibleFraction);
    w.put(c.memhogFraction);
    w.put(c.fabric);
    w.put(c.tracePath);
    w.put(c.os.memBytes);
    w.put(c.os.thpEnabled);
    w.put(c.os.kernelReservedFraction);
    w.put(c.os.pollutedRegionFraction);
    w.put(c.os.compactionCandidates);
    w.put(c.os.compactionBudgetPages);
    w.put(c.os.compactionMaxAttempts);
    w.put(c.os.seed);
    w.put(c.memhog.churn);
    w.put(c.memhog.pinnedProbability);
    w.put(c.memhog.meanFreeRunLength);
    w.put(c.memhog.seed);
}

void
writeTlbGeometryFields(const SystemConfig &c, FieldWriter &w)
{
    // Replacement is geometry: TLBs own policy side-state, so
    // substrates differing in victim selection cannot share one.
    w.put(c.coreKind);
    w.put(c.unifiedL1Tlb);
    w.put(c.unifiedL1TlbEntries);
    w.put(c.replacement.kind);
    w.put(c.replacement.rripBits);
    w.put(c.replacement.seed);
}

void
writeSubstrateFields(const SystemConfig &c, FieldWriter &w)
{
    w.put(c.l1Kind);
    w.put(c.l1SizeBytes);
    w.put(c.l1Assoc);
    w.put(c.partitionWays);
    w.put(c.freqGhz);
    w.put(c.policy);
    w.put(c.tftEntries);
    w.put(c.tftAssoc);
    w.put(c.piptTlbCycles);
    w.put(c.siptAssoc);
    w.put(c.prefetch.kind);
    w.put(c.prefetch.degree);
    w.put(c.prefetch.tableEntries);
    w.put(c.outer.l2SizeBytes);
    w.put(c.outer.l2Assoc);
    w.put(c.outer.l2LatencyNs);
    w.put(c.outer.llcSizeBytes);
    w.put(c.outer.llcAssoc);
    w.put(c.outer.llcLatencyNs);
    w.put(c.outer.dramLatencyNs);
    w.put(c.schedulerCounterPolicy);
    w.put(c.shootdownCycles);
    w.put(c.icacheKind);
}

} // namespace seesaw
