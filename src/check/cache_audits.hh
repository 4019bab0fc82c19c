/**
 * @file
 * Invariant checks over tag stores and the SEESAW way-partition.
 *
 * auditTagStoreSanity() covers any SetAssocCache (L1s, private L2s,
 * the LLC): lines must be findable in the set their address names,
 * valid/state flags must agree, and the policy's own side-state
 * invariant must hold over the valid ways (each ReplacementPolicy
 * exports it — e.g. LRU timestamps form a strict order below the use
 * clock, SRRIP RRPVs stay in range; see ReplacementPolicy::auditSet).
 *
 * auditSeesawPlacement() covers the partition compliance the paper's
 * coherence and energy claims rest on (§IV-B1/IV-C1): under the
 * `4way` policy every line sits in the partition its physical address
 * names; under `4way-8way` only superpage lines must.
 *
 * auditPrefetchPlacement() is the stricter rule for prefetched lines:
 * SEESAW prefetch fills always use partition scope (the candidate's
 * PA comes from the triggering access's translation), so a prefetched
 * line must sit in its PA-named partition even under `4way-8way`.
 */

#ifndef SEESAW_CHECK_CACHE_AUDITS_HH
#define SEESAW_CHECK_CACHE_AUDITS_HH

#include "cache/set_assoc_cache.hh"
#include "check/invariant_auditor.hh"
#include "core/seesaw_cache.hh"

namespace seesaw::check {

/**
 * Structural sanity of one tag store.
 * @param allow_duplicates Tolerate one physical line present in two
 *        ways of a set — legal only under SEESAW's `4way-8way`
 *        insertion policy (a page mapped both base and super).
 */
void auditTagStoreSanity(const SetAssocCache &tags, AuditContext &ctx,
                         bool allow_duplicates = false);

/** SEESAW partition compliance for @p cache's tag store. */
void auditSeesawPlacement(const SeesawCache &cache, AuditContext &ctx);

/** Prefetched lines must sit in their PA-named partition under every
 *  insertion policy (prefetch fills are partition-scoped). */
void auditPrefetchPlacement(const SeesawCache &cache,
                            AuditContext &ctx);

} // namespace seesaw::check

#endif // SEESAW_CHECK_CACHE_AUDITS_HH
