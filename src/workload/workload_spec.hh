/**
 * @file
 * Statistical models of the paper's 16 workloads (Section V).
 *
 * The paper drives its simulator with Pin traces of SPEC, PARSEC,
 * Cloudsuite, Biobench and cloud/server applications captured on a
 * long-uptime Sandybridge host. We substitute parameterised reference
 * generators: each spec fixes the trace properties the evaluation
 * actually exercises — footprint, memory-reference density, reuse
 * locality (streaming / pointer-chase / hot-set mixture), write ratio,
 * threading and sharing intensity, and how much of the footprint the
 * OS may back with superpages.
 */

#ifndef SEESAW_WORKLOAD_WORKLOAD_SPEC_HH
#define SEESAW_WORKLOAD_WORKLOAD_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace seesaw {

/** Per-workload trace-statistics model. */
struct WorkloadSpec
{
    std::string name;

    std::uint64_t footprintBytes = 64ULL << 20;

    /** Memory references per instruction. */
    double memRefFraction = 0.35;

    /** Fraction of references that are stores. */
    double writeFraction = 0.25;

    /**
     * Probability a reference re-touches the previous line (adjacent
     * field/stack accesses to the same object). Drives MRU way-
     * predictor accuracy (Fig 15) and short-distance reuse.
     */
    double repeatFraction = 0.30;

    /** @name Reuse-locality mixture (fractions sum to <= 1; the
     *  remainder goes to the zipf hot-set component). */
    /// @{
    double streamingFraction = 0.2;   //!< sequential sweeps
    double pointerChaseFraction = 0.2; //!< random walk over the footprint

    /**
     * Fraction of references that round-robin over a small group of
     * lines mapping to the same cache set (power-of-two-aligned
     * arrays/fields) — the classic source of conflict misses. Group
     * sizes of 2-6 reproduce Fig 2a: direct-mapped caches thrash on
     * all of them, 4-way on few, 8-way on none.
     */
    double conflictFraction = 0.10;
    /// @}

    /**
     * Region stickiness of the pointer-chase component: mean
     * references spent inside one 2MB region before jumping to a
     * random one. Real traces are strongly clustered at this
     * granularity (allocators group hot objects; graphs have
     * community structure); gups-style truly random streams use a
     * small value.
     */
    double chaseRegionStayRefs = 96.0;

    /**
     * The chase walks within a bounded working set of this many 2MB
     * regions that slowly drifts across the footprint (real chasing
     * code revisits a neighbourhood before moving on). 0 = unbounded:
     * every jump picks uniformly from the whole footprint (gups).
     */
    unsigned chasePoolRegions = 8;

    /** Zipf exponent of the hot-set component. */
    double zipfAlpha = 0.8;

    /** Size of the hot set the zipf component covers. */
    std::uint64_t hotSetBytes = 2ULL << 20;

    /** Thread count (only thread 0 is simulated in detail; the rest
     *  contribute coherence probes). */
    unsigned threads = 1;

    /** Fraction of the footprint actively shared between threads. */
    double sharedFraction = 0.0;

    /** Probability a 2MB chunk of the heap is THP-eligible
     *  (stacks, file-backed and protected memory are not). */
    double thpEligibleFraction = 0.9;

    /** Directed coherence probes per kilo-instruction from system
     *  activity (OS, network stack) even when single-threaded. */
    double systemProbesPerKiloInstr = 0.8;

    /**
     * Text-segment size for the L1I application (§V). SPEC binaries
     * have ~1-2MB of hot text; scale-out cloud workloads carry tens of
     * MB of instruction-side footprint (Ferdman et al., ASPLOS'12) —
     * the case the paper flags as motivating an L1I SEESAW.
     */
    std::uint64_t codeFootprintBytes = 2ULL << 20;

    /** @return True for multi-threaded workloads. */
    bool multithreaded() const { return threads > 1; }

    /** Field-wise equality: one-pass grouping shares a pass only
     *  between cells whose whole spec matches. */
    bool operator==(const WorkloadSpec &) const = default;
};

/** The 16 workloads of Figs 3/7/11, in the paper's order:
 *  astar, cactus, cann, gems, g500, gups, mcf, mumm, omnet, tigr,
 *  tunk, xalanc, nutch, olio, redis, mongo. */
const std::vector<WorkloadSpec> &paperWorkloads();

/** The 8 cloud-centric workloads of Figs 12/15:
 *  olio, redis, nutch, tunk, g500, mongo, cann, mcf. */
const std::vector<WorkloadSpec> &cloudWorkloads();

/** Find a workload spec by name (fatal if unknown). */
const WorkloadSpec &findWorkload(const std::string &name);

} // namespace seesaw

#endif // SEESAW_WORKLOAD_WORKLOAD_SPEC_HH
