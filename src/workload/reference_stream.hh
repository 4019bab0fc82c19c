/**
 * @file
 * Generates a memory-reference stream matching a WorkloadSpec.
 *
 * Each reference draws from a three-way locality mixture: sequential
 * streaming, uniform pointer chasing across the footprint, and a
 * zipf-skewed hot set. References are separated by geometric
 * instruction gaps whose mean matches the spec's memory-reference
 * density, mimicking a Pin trace's structure.
 */

#ifndef SEESAW_WORKLOAD_REFERENCE_STREAM_HH
#define SEESAW_WORKLOAD_REFERENCE_STREAM_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "workload/workload_spec.hh"

namespace seesaw {

/** One generated reference: @p gap instructions precede it. */
struct MemRef
{
    std::uint32_t gap = 0; //!< non-memory instructions before this ref
    Addr va = 0;
    AccessType type = AccessType::Read;
};

/**
 * Deterministic reference generator for one workload.
 */
class ReferenceStream
{
  public:
    /**
     * @param spec Workload statistics.
     * @param heap_base Virtual base of the workload's heap.
     * @param seed RNG seed (runs with equal seeds are identical).
     * @param thread Thread index for multi-threaded runs: each thread
     *        gets a private hot set (offset within the footprint)
     *        while spec.sharedFraction of hot-set references target
     *        the common shared region at the footprint base. Thread 0
     *        is identical to the single-threaded stream.
     */
    ReferenceStream(const WorkloadSpec &spec, Addr heap_base,
                    std::uint64_t seed, unsigned thread = 0);

    /** Produce the next reference. */
    MemRef next();

    const WorkloadSpec &spec() const { return spec_; }

    /**
     * Virtual ranges the stream will hammer from the first reference:
     * the zipf hot set and the chase pool's hot windows. Simulators
     * prefill outer cache levels with these to reach steady state
     * without billions of warmup instructions.
     */
    std::vector<std::pair<Addr, Addr>> hotRanges() const;

  private:
    WorkloadSpec spec_;
    Addr heapBase_;
    Rng rng_;

    std::uint64_t numLines_;    //!< footprint in 64B lines
    std::uint64_t prevLine_ = 0; //!< last line touched (repeats)
    std::uint64_t hotLines_;    //!< hot set in 64B lines
    std::uint64_t privateHotBase_ = 0; //!< thread-private hot region
    std::uint64_t streamCursor_ = 0;
    GeometricTable gapTable_; //!< instruction gaps between references

    // Pointer-chase random-walk state: the walk lingers inside one
    // 2MB region (spec_.chaseRegionStayRefs on average), jumps within
    // a bounded pool of regions, and the pool itself slowly drifts.
    std::uint64_t numRegions_;      //!< footprint in 2MB regions
    std::uint64_t chaseRegion_ = 0; //!< current region index
    std::uint64_t chaseStay_ = 0;   //!< refs left before jumping
    std::vector<std::uint64_t> chasePool_; //!< regions in the pool

    /** Pick the next chase region (pool jump or pool drift). */
    std::uint64_t nextChaseRegion();

    // Conflict-group state: a small set of same-set lines accessed
    // round-robin; regrouped periodically.
    std::uint64_t conflictBase_ = 0;   //!< first line of the group
    std::uint64_t conflictStride_ = 1; //!< line stride between members
    unsigned conflictSize_ = 2;        //!< lines in the group (2-6)
    unsigned conflictNextMember_ = 0;  //!< round-robin cursor
    unsigned conflictRefsLeft_ = 0;    //!< refs before regrouping

    /** Produce the next conflict-group line. */
    std::uint64_t nextConflictLine();

    Addr lineToVa(std::uint64_t line) const
    {
        return heapBase_ + line * 64;
    }
};

} // namespace seesaw

#endif // SEESAW_WORKLOAD_REFERENCE_STREAM_HH
