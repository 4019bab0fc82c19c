/**
 * @file
 * The SystemConfig field registry (sim/config_fields.hh): every leaf
 * has exactly one role and moves the cell hash, except the
 * observe-only audit fields, which move nothing.
 */

#include <array>
#include <set>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "harness/campaign.hh"
#include "sim/config_fields.hh"

namespace seesaw {
namespace {

/** Visits every leaf of @p c; @return the leaf count. A new member
 *  breaks these bindings until it has a role and is listed here. */
template <typename Visit>
std::size_t
forEachLeaf(SystemConfig &c, Visit &&visit)
{
    auto &[coreKind, l1Kind, l1SizeBytes, l1Assoc, partitionWays, freqGhz,
           policy, tftEntries, tftAssoc, unifiedL1Tlb, unifiedL1TlbEntries,
           piptTlbCycles, siptAssoc, replacement, prefetch, os, memhog,
           memhogFraction, outer, cores, fabric, instructions,
           warmupInstructions, seed, schedulerCounterPolicy,
           contextSwitchInterval, promotionInterval, splinterInterval,
           shootdownCycles, modelInstructionCache, icacheKind,
           codeThpEligibleFraction, useOneGbHeap, tracePath, audit] = c;
    auto &[replKind, replRripBits, replSeed] = replacement;
    auto &[pfKind, pfDegree, pfTableEntries] = prefetch;
    auto &[osMem, osThp, osKernel, osPolluted, osCandidates, osBudget,
           osAttempts, osSeed] = os;
    auto &[hogChurn, hogPinned, hogRunLength, hogSeed] = memhog;
    auto &[l2Size, l2Assoc, l2Ns, llcSize, llcAssoc, llcNs, dramNs] =
        outer;
    auto &[auditMode, auditPeriodEvents] = audit;
    const auto all = [&](auto &...leaf) {
        (visit(leaf), ...);
        return sizeof...(leaf);
    };
    return all(coreKind, l1Kind, l1SizeBytes, l1Assoc, partitionWays,
               freqGhz, policy, tftEntries, tftAssoc, unifiedL1Tlb,
               unifiedL1TlbEntries, piptTlbCycles, siptAssoc, replKind,
               replRripBits, replSeed, pfKind, pfDegree, pfTableEntries,
               osMem, osThp, osKernel, osPolluted, osCandidates, osBudget,
               osAttempts, osSeed, hogChurn, hogPinned, hogRunLength,
               hogSeed, memhogFraction, l2Size, l2Assoc, l2Ns, llcSize,
               llcAssoc, llcNs, dramNs, cores, fabric, instructions,
               warmupInstructions, seed, schedulerCounterPolicy,
               contextSwitchInterval, promotionInterval, splinterInterval,
               shootdownCycles, modelInstructionCache, icacheKind,
               codeThpEligibleFraction, useOneGbHeap, tracePath,
               auditMode, auditPeriodEvents);
}

/** Change @p v to a different value of its own type. */
void perturb(bool &v) { v = !v; }
void perturb(double &v) { v += 0.5; }
void perturb(std::string &v) { v += 'x'; }
template <typename T>
void
perturb(T &v) // integers, and enums through their underlying value
{
    if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) + 1);
    else
        ++v;
}

std::array<std::string, 3>
roleBytes(const SystemConfig &c)
{
    FieldWriter front, geometry, substrate;
    writeFrontEndFields(c, front);
    writeTlbGeometryFields(c, geometry);
    writeSubstrateFields(c, substrate);
    return {front.bytes(), geometry.bytes(), substrate.bytes()};
}

TEST(ConfigFields, EveryLeafHasExactlyOneRole)
{
    SystemConfig config;
    const std::array<std::string, 3> base = roleBytes(config);
    const std::uint64_t base_hash = harness::configHash(config);
    // The only leaves no role writes. Audits never change results
    // (seesaw-tidy's audit-side-effect check), so they key neither
    // one-pass groups nor stored cells.
    const std::set<const void *> observe_only = {
        &config.audit.mode, &config.audit.periodEvents};

    std::size_t index = 0;
    const std::size_t leaves = forEachLeaf(config, [&](auto &leaf) {
        const auto saved = leaf;
        perturb(leaf);
        const std::array<std::string, 3> roles = roleBytes(config);
        const bool hashed = harness::configHash(config) != base_hash;
        leaf = saved;

        unsigned changed = 0;
        for (std::size_t r = 0; r < roles.size(); ++r)
            changed += roles[r] != base[r];
        const bool observe = observe_only.count(&leaf) != 0;
        EXPECT_EQ(changed, observe ? 0u : 1u)
            << "leaf " << index << " (in declaration order)";
        EXPECT_EQ(hashed, !observe) << "leaf " << index;
        ++index;
    });
    EXPECT_EQ(leaves, 56u);

    // Reordering a role list re-keys every stored cell; pin the default
    // so that fails here, not only against the nightly goldens.
    EXPECT_EQ(harness::configHash(SystemConfig{}), 0x271611de838bf575ULL);
}

} // namespace
} // namespace seesaw
