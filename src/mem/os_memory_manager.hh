/**
 * @file
 * An OS memory-management model: transparent huge pages (THP), demand
 * allocation from a buddy pool, bounded-effort compaction, khugepaged-
 * style promotion and superpage splintering.
 *
 * This substitutes for the real, long-uptime Linux/x86 host used in the
 * paper's Fig 3 characterisation: superpage coverage *emerges* from the
 * contiguity of free physical memory, which memhog (mem/memhog.hh)
 * degrades.
 */

#ifndef SEESAW_MEM_OS_MEMORY_MANAGER_HH
#define SEESAW_MEM_OS_MEMORY_MANAGER_HH

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/buddy_allocator.hh"
#include "mem/page_table.hh"

namespace seesaw {

/** Configuration of the OS model. */
struct OsParams
{
    std::uint64_t memBytes = 4ULL << 30; //!< Table II: 4GB DRAM
    bool thpEnabled = true;              //!< transparent 2MB pages on

    /** Fraction of memory reserved at boot for clustered, unmovable
     *  kernel allocations (whole 2MB page-blocks). */
    double kernelReservedFraction = 0.04;

    /** Fraction of 2MB page-blocks polluted by a single scattered
     *  unmovable allocation (long-uptime system activity). */
    double pollutedRegionFraction = 0.08;

    /** 2MB regions sampled per direct-compaction attempt. */
    unsigned compactionCandidates = 64;

    /** Maximum page migrations per direct-compaction attempt. */
    unsigned compactionBudgetPages = 192;

    /** Direct-compaction attempts per failed THP allocation. */
    unsigned compactionMaxAttempts = 3;

    std::uint64_t seed = 0x05eed;        //!< RNG seed for OS decisions
};

/** A 2MB region was promoted from 512 base pages to one superpage. */
struct PromotionEvent
{
    Asid asid;
    Addr vaBase;   //!< 2MB-aligned virtual base of the promoted region
    Addr newPaBase; //!< physical base of the fresh 2MB block
    /** Physical bases of the 512 old 4KB frames; cached lines under
     *  these addresses are stale and must be swept (Section IV-C2). */
    std::vector<Addr> oldPaBases;
};

/** A 2MB superpage was splintered into 512 base pages. */
struct SplinterEvent
{
    Asid asid;
    Addr vaBase;
};

/**
 * The OS memory manager. Owns the physical frame pool, the page tables
 * and all policy around superpage creation and destruction.
 */
class OsMemoryManager
{
  public:
    explicit OsMemoryManager(OsParams params = {});

    /** @return A fresh address-space identifier. */
    Asid createProcess();

    /** Tear down @p asid, releasing all its frames. */
    void destroyProcess(Asid asid);

    /**
     * Map @p bytes of anonymous memory at @p va_base (4KB aligned).
     * 2MB-aligned, THP-eligible chunks are mapped with superpages when a
     * contiguous physical block can be found (compacting if necessary);
     * everything else falls back to base pages.
     *
     * @param thp_eligible_fraction Probability a given 2MB chunk is
     *        eligible for THP at all — models per-workload memory that
     *        must stay base-paged (stacks, finer-grained protection,
     *        file-backed mappings).
     */
    void mapAnonymous(Asid asid, Addr va_base, std::uint64_t bytes,
                      double thp_eligible_fraction = 1.0);

    /** Unmap and free everything in [va_base, va_base + bytes). */
    void unmapRange(Asid asid, Addr va_base, std::uint64_t bytes);

    /** Translate a virtual address of @p asid. */
    std::optional<Translation> translate(Asid asid, Addr va) const
    {
        return pageTable_.translate(asid, va);
    }

    /**
     * khugepaged: scan @p asid's fully base-page-populated 2MB regions
     * and promote up to @p max_promotions of them into superpages.
     * Each promotion migrates 512 pages into a fresh physical block.
     */
    std::vector<PromotionEvent> runPromotionPass(Asid asid,
                                                 unsigned max_promotions);

    /**
     * Splinter the superpage covering @p va back into 512 base pages
     * (in place, no copy), as an mprotect() on a sub-range would.
     */
    std::optional<SplinterEvent> splinter(Asid asid, Addr va);

    /**
     * Explicitly map one 1GB superpage at @p va_base (1GB aligned).
     * Transparent 1GB support is still maturing in production OSes
     * (§II-B), so 1GB pages are an explicit-request interface here
     * (hugetlbfs-style). @return False when no contiguous 1GB block
     * exists or the range is already mapped.
     */
    bool mapOneGbPage(Asid asid, Addr va_base);

    /** @name Raw-frame interface (memhog / kernel noise). */
    /// @{
    /**
     * Allocate up to @p count raw frames in one step, in the order as
     * many single-frame buddy allocations would return them.
     * @return The frames; fewer than @p count when memory runs out.
     */
    std::vector<std::uint64_t> allocateRawFrames(std::uint64_t count,
                                                 bool movable);

    /** Free raw frames, movable or pinned, in one step. */
    void freeRawFrames(std::span<const std::uint64_t> frames);

    /** Re-tag an allocated raw frame as pinned (unmovable) in place. */
    void pinRawFrame(std::uint64_t frame);
    /// @}

    /** Fraction of @p asid's mapped footprint backed by superpages
     *  (the Fig 3 metric). */
    double superpageCoverage(Asid asid) const;

    /** Virtual bases of every 2MB superpage mapped by @p asid. */
    std::vector<Addr> superpageVas(Asid asid) const;

    const BuddyAllocator &buddy() const { return buddy_; }
    const PageTable &pageTable() const { return pageTable_; }
    const OsParams &params() const { return params_; }

    /** @name Bookkeeping counters. */
    /// @{
    std::uint64_t pagesMigrated() const { return pagesMigrated_; }
    std::uint64_t compactionAttempts() const
    {
        return compactionAttempts_;
    }
    std::uint64_t compactionSuccesses() const
    {
        return compactionSuccesses_;
    }
    std::uint64_t superpagesAllocated() const
    {
        return superpagesAllocated_;
    }
    std::uint64_t promotions() const { return promotions_; }
    std::uint64_t splinters() const { return splinters_; }
    /// @}

  private:
    /** Physical frame ownership states. */
    enum class FrameState : std::uint8_t {
        Free,
        Movable4K,   //!< process base page (reverse-mapped, migratable)
        RawMovable,  //!< anonymous raw page (memhog), migratable
        Unmovable,   //!< pinned/kernel
        Super,       //!< part of a 2MB superpage block
    };

    struct ReverseEntry
    {
        Asid asid;
        Addr vaBase;
    };

    OsParams params_;
    BuddyAllocator buddy_;
    PageTable pageTable_;
    Rng rng_;
    Asid nextAsid_ = 1;

    std::vector<FrameState> frameState_;
    /** Base-page frame -> owner, for compaction's migrations; the
     *  page table is the record of superpage mappings. */
    std::unordered_map<std::uint64_t, ReverseEntry> reverse4k_;

    std::uint64_t pagesMigrated_ = 0;
    std::uint64_t compactionAttempts_ = 0;
    std::uint64_t compactionSuccesses_ = 0;
    std::uint64_t superpagesAllocated_ = 0;
    std::uint64_t promotions_ = 0;
    std::uint64_t splinters_ = 0;

    static constexpr unsigned kSuperOrder = 9; // 2MB in 4KB frames
    static constexpr unsigned kFramesPerSuper = 1u << kSuperOrder;
    static constexpr unsigned kGigaOrder = 18; // 1GB in 4KB frames
    static constexpr std::uint64_t kFramesPerGiga = 1ULL << kGigaOrder;

    void seedBootNoise();

    /** Allocate (compacting if needed) a 2MB block; nullopt on failure. */
    std::optional<std::uint64_t> allocateSuperBlock();

    /** One direct-compaction attempt targeting a 2MB block. */
    bool compactOnce();

    /** Try to fully evacuate the 2MB region at @p region_frame. */
    bool evacuateRegion(std::uint64_t region_frame);

    /** Map 4KB pages covering [va, va + count*4KB). */
    void mapBasePages(Asid asid, Addr va, std::uint64_t count);

    /** Map a single 2MB superpage; @return false if no block found. */
    bool tryMapSuperpage(Asid asid, Addr va_base);

    void setFrames(std::uint64_t frame, std::uint64_t count,
                   FrameState state);
};

} // namespace seesaw

#endif // SEESAW_MEM_OS_MEMORY_MANAGER_HH
