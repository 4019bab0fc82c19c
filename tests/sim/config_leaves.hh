/**
 * @file
 * Test helpers over every SystemConfig leaf: visit each one, change it
 * to another value of its type, and read the role bytes the field
 * registry (sim/config_fields.hh) writes for a config.
 */

#ifndef SEESAW_TESTS_SIM_CONFIG_LEAVES_HH
#define SEESAW_TESTS_SIM_CONFIG_LEAVES_HH

#include <array>
#include <string>
#include <type_traits>

#include "sim/config_fields.hh"

namespace seesaw::test {

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
inline void perturb(bool &v) { v = !v; }
inline void perturb(double &v) { v += 0.5; }
inline void perturb(std::string &v) { v += 'x'; }
template <typename T>
void
perturb(T &v) // integers, and enums through their underlying value
{
    if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) + 1);
    else
        ++v;
}

/** Role indices into roleBytes(). */
enum Role : std::size_t { kFrontEnd, kSubstrate };

inline std::array<std::string, 2>
roleBytes(const SystemConfig &c)
{
    FieldWriter front, substrate;
    writeFrontEndFields(c, front);
    writeSubstrateFields(c, substrate);
    return {front.bytes(), substrate.bytes()};
}

} // namespace seesaw::test

#endif // SEESAW_TESTS_SIM_CONFIG_LEAVES_HH
