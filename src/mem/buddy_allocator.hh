/**
 * @file
 * A binary buddy allocator over simulated physical memory.
 *
 * This is the substrate beneath the OS memory manager: transparent
 * superpage allocation succeeds only when an aligned, contiguous 2MB
 * (order-9) block is free, exactly as in Linux. Fragmentation induced by
 * memhog (Section III-C / Fig 3) manifests as depleted high-order free
 * lists.
 *
 * Each order's free list is a bitmap over the blocks of that order,
 * searched lowest block first, so allocation order is exactly that of
 * a sorted free list; per-frame free flags are packed 64 to a word.
 *
 * The free lists are order-confluent: whatever sequence of calls led
 * to a set of free frames, the lists hold exactly its maximal aligned
 * free blocks. The bulk calls lean on this: they edit the frame flags
 * and rebuild the lists once.
 */

#ifndef SEESAW_MEM_BUDDY_ALLOCATOR_HH
#define SEESAW_MEM_BUDDY_ALLOCATOR_HH

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hh"

namespace seesaw {

/**
 * Buddy allocator managing 4KB frames. Orders are powers of two of the
 * base frame: order 0 = 4KB, order 9 = 2MB, order 18 = 1GB.
 */
class BuddyAllocator
{
  public:
    static constexpr unsigned kFrameBits = 12;
    static constexpr std::uint64_t kFrameBytes = 1ULL << kFrameBits;
    static constexpr unsigned kMaxOrder = 18; // 1GB

    /** Manage @p mem_bytes of physical memory (rounded down to 4KB). */
    explicit BuddyAllocator(std::uint64_t mem_bytes);

    /**
     * Allocate a naturally aligned block of 2^order frames.
     * @return The first frame number, or nullopt if no block exists.
     */
    std::optional<std::uint64_t> allocate(unsigned order);

    /**
     * Allocate a specific naturally aligned block if it is entirely
     * free. Used by the compaction daemon to claim a region it just
     * emptied. @return True on success.
     */
    bool allocateSpecific(std::uint64_t frame, unsigned order);

    /** Release a block previously returned by allocate(). */
    void free(std::uint64_t frame, unsigned order);

    /**
     * Allocate up to @p count single frames at once, exactly as that
     * many allocate(0) calls would: whole free blocks are drained
     * lowest order first, lowest address first, frames ascending.
     * @return The frames in that order; fewer than @p count when
     *         memory runs out.
     */
    std::vector<std::uint64_t> allocateFrames(std::uint64_t count);

    /**
     * Free the allocated single frames @p frames at once, leaving the
     * state that free(frame, 0) on each of them would.
     */
    void freeFrames(std::span<const std::uint64_t> frames);

    /** @return Whether the single frame @p frame is currently free. */
    bool isFrameFree(std::uint64_t frame) const;

    /** @return Total frames under management. */
    std::uint64_t totalFrames() const { return totalFrames_; }

    /** @return Currently free frames. */
    std::uint64_t freeFrames() const { return freeFrames_; }

    /** @return Number of free blocks on the @p order free list. */
    std::size_t freeBlocksAt(unsigned order) const;

    /** @return Free frames contained in blocks of at least @p order. */
    std::uint64_t freeFramesAtOrAbove(unsigned order) const;

    /**
     * Fragmentation index in [0,1]: 0 when all free memory sits in
     * blocks of at least @p order, 1 when none does.
     */
    double fragmentationIndex(unsigned order) const;

    /** Frame index of the buddy of @p frame at @p order. */
    static std::uint64_t buddyOf(std::uint64_t frame, unsigned order)
    {
        return frame ^ (std::uint64_t{1} << order);
    }

    /** Convert a frame number to a byte address. */
    static Addr frameToAddr(std::uint64_t frame)
    {
        return frame << kFrameBits;
    }

    /** Convert a byte address to its frame number. */
    static std::uint64_t addrToFrame(Addr addr)
    {
        return addr >> kFrameBits;
    }

  private:
    /** One order's free list. */
    struct FreeBitmap
    {
        /** Bit (start >> order) marks the free block at frame start. */
        std::vector<std::uint64_t> words;
        std::size_t count = 0;     //!< free blocks (set bits)
        std::size_t firstWord = 0; //!< every word below this is zero
    };

    std::uint64_t totalFrames_;
    std::uint64_t freeFrames_ = 0;

    /** Free lists indexed by order. */
    std::array<FreeBitmap, kMaxOrder + 1> freeLists_;

    /** Per-frame free flags, 64 frames a word, for isFrameFree. */
    std::vector<std::uint64_t> frameFree_;

    void markRange(std::uint64_t frame, unsigned order, bool free_state);

    /** Recompute every free list from the per-frame free flags. */
    void rebuildFreeLists();

    bool isFreeBlock(std::uint64_t frame, unsigned order) const;
    void insertBlock(std::uint64_t frame, unsigned order);
    void removeBlock(std::uint64_t frame, unsigned order);

    /** First frame of the lowest free block of @p order (non-empty). */
    std::uint64_t lowestBlock(unsigned order);

    /** Find the free block (start, order) containing @p frame. */
    std::optional<std::pair<std::uint64_t, unsigned>>
    findContainingFreeBlock(std::uint64_t frame, unsigned min_order) const;
};

} // namespace seesaw

#endif // SEESAW_MEM_BUDDY_ALLOCATOR_HH
