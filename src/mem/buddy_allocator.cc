#include "mem/buddy_allocator.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/logging.hh"

namespace seesaw {

namespace {

constexpr std::uint64_t
blockFrames(unsigned order)
{
    return std::uint64_t{1} << order;
}

/** Words holding one bit for each of @p bits positions. */
constexpr std::size_t
wordsFor(std::uint64_t bits)
{
    return static_cast<std::size_t>((bits + 63) / 64);
}

constexpr std::uint64_t kEvenBits = 0x5555555555555555ULL;

/** Pack the even bits of @p x (its odd bits clear) into the low half. */
constexpr std::uint64_t
packEvenBits(std::uint64_t x)
{
    x = (x | x >> 1) & 0x3333333333333333ULL;
    x = (x | x >> 2) & 0x0f0f0f0f0f0f0f0fULL;
    x = (x | x >> 4) & 0x00ff00ff00ff00ffULL;
    x = (x | x >> 8) & 0x0000ffff0000ffffULL;
    return (x | x >> 16) & 0x00000000ffffffffULL;
}

static_assert(packEvenBits(kEvenBits) == 0xffffffffULL);
static_assert(packEvenBits(0x4000000000000011ULL) == 0x80000005ULL);

} // namespace

BuddyAllocator::BuddyAllocator(std::uint64_t mem_bytes)
    : totalFrames_(mem_bytes >> kFrameBits),
      frameFree_(wordsFor(totalFrames_), ~std::uint64_t{0})
{
    SEESAW_ASSERT(totalFrames_ > 0, "empty physical memory");
    for (unsigned order = 0; order <= kMaxOrder; ++order)
        freeLists_[order].words.assign(wordsFor(totalFrames_ >> order), 0);

    // Every frame starts free; the lists then carve memory into its
    // maximal aligned blocks.
    if (const unsigned tail = totalFrames_ & 63; tail != 0)
        frameFree_.back() = (std::uint64_t{1} << tail) - 1;
    freeFrames_ = totalFrames_;
    rebuildFreeLists();
}

void
BuddyAllocator::markRange(std::uint64_t frame, unsigned order,
                          bool free_state)
{
    // A block of order >= 6 is word aligned and covers whole words;
    // a smaller one sits inside a single word.
    if (order >= 6) {
        const std::uint64_t fill = free_state ? ~std::uint64_t{0} : 0;
        std::fill_n(&frameFree_[frame >> 6], blockFrames(order) >> 6, fill);
        return;
    }
    const std::uint64_t bits = (std::uint64_t{1} << blockFrames(order)) - 1;
    const std::uint64_t mask = bits << (frame & 63);
    std::uint64_t &word = frameFree_[frame >> 6];
    word = free_state ? (word | mask) : (word & ~mask);
}

void
BuddyAllocator::rebuildFreeLists()
{
    // Level `order` holds one bit per block of that order, set when the
    // whole block is free: level 0 is the frame map, and two sibling
    // bits that are both set make one bit of the next level. A free
    // block is on its order's list unless its parent is free too. No
    // partial block at the end of memory is ever free, since its
    // missing frames' flags are clear.
    freeLists_[0].words = frameFree_;
    for (unsigned order = 0; order <= kMaxOrder; ++order) {
        std::vector<std::uint64_t> &words = freeLists_[order].words;
        std::uint64_t *parents = nullptr;
        if (order < kMaxOrder) {
            std::vector<std::uint64_t> &next = freeLists_[order + 1].words;
            std::fill(next.begin(), next.end(), 0);
            parents = next.data();
        }
        std::size_t count = 0;
        for (std::size_t w = 0; w < words.size(); ++w) {
            std::uint64_t word = words[w];
            if (word == 0)
                continue;
            const std::uint64_t pairs = word & (word >> 1) & kEvenBits;
            if (parents && pairs != 0) {
                parents[w >> 1] |= packEvenBits(pairs) << (32 * (w & 1));
                word &= ~(pairs | pairs << 1);
                words[w] = word;
            }
            // Most words end up empty; skip the popcount for them.
            if (word != 0)
                count += static_cast<std::size_t>(std::popcount(word));
        }
        freeLists_[order].count = count;
        freeLists_[order].firstWord = 0;
    }
}

bool
BuddyAllocator::isFreeBlock(std::uint64_t frame, unsigned order) const
{
    // A block that runs past the end of memory is never free: its bit,
    // if the bitmap has one, is never set.
    const FreeBitmap &list = freeLists_[order];
    const std::uint64_t index = frame >> order;
    return (index >> 6) < list.words.size() &&
           ((list.words[index >> 6] >> (index & 63)) & 1) != 0;
}

void
BuddyAllocator::insertBlock(std::uint64_t frame, unsigned order)
{
    FreeBitmap &list = freeLists_[order];
    const std::uint64_t index = frame >> order;
    const std::uint64_t bit = std::uint64_t{1} << (index & 63);
    std::uint64_t &word = list.words[index >> 6];
    SEESAW_ASSERT((word & bit) == 0, "double insert of free block ", frame);
    word |= bit;
    ++list.count;
    list.firstWord = std::min<std::size_t>(list.firstWord, index >> 6);
}

void
BuddyAllocator::removeBlock(std::uint64_t frame, unsigned order)
{
    SEESAW_ASSERT(isFreeBlock(frame, order), "free block not found ", frame);
    FreeBitmap &list = freeLists_[order];
    const std::uint64_t index = frame >> order;
    list.words[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
    --list.count;
}

std::uint64_t
BuddyAllocator::lowestBlock(unsigned order)
{
    FreeBitmap &list = freeLists_[order];
    while (list.words[list.firstWord] == 0)
        ++list.firstWord;
    const std::uint64_t word = list.words[list.firstWord];
    const std::uint64_t index = list.firstWord * 64 + std::countr_zero(word);
    return index << order;
}

std::optional<std::uint64_t>
BuddyAllocator::allocate(unsigned order)
{
    SEESAW_ASSERT(order <= kMaxOrder, "order too large: ", order);

    unsigned have = order;
    while (have <= kMaxOrder && freeLists_[have].count == 0)
        ++have;
    if (have > kMaxOrder)
        return std::nullopt;

    std::uint64_t frame = lowestBlock(have);
    removeBlock(frame, have);

    // Split down to the requested order, returning upper halves to the
    // free lists.
    while (have > order) {
        --have;
        insertBlock(frame + blockFrames(have), have);
    }

    markRange(frame, order, false);
    freeFrames_ -= blockFrames(order);
    return frame;
}

std::vector<std::uint64_t>
BuddyAllocator::allocateFrames(std::uint64_t count)
{
    std::vector<std::uint64_t> frames;
    frames.reserve(std::min(count, freeFrames_));
    for (unsigned order = 0; order <= kMaxOrder && frames.size() < count;
         ++order) {
        const FreeBitmap &list = freeLists_[order];
        for (std::size_t w = list.firstWord;
             w < list.words.size() && frames.size() < count; ++w) {
            for (std::uint64_t bits = list.words[w];
                 bits != 0 && frames.size() < count; bits &= bits - 1) {
                const std::uint64_t start =
                    (w * 64 + std::countr_zero(bits)) << order;
                const std::uint64_t take =
                    std::min(blockFrames(order), count - frames.size());
                const std::size_t first = frames.size();
                frames.resize(first + take);
                std::iota(frames.begin() + first, frames.end(), start);
                if (take == blockFrames(order)) {
                    markRange(start, order, false);
                } else {
                    // Only the last block can be taken in part.
                    for (std::uint64_t f = start; f < start + take; ++f)
                        frameFree_[f >> 6] &= ~(std::uint64_t{1} << (f & 63));
                }
            }
        }
    }
    freeFrames_ -= frames.size();
    rebuildFreeLists();
    return frames;
}

void
BuddyAllocator::freeFrames(std::span<const std::uint64_t> frames)
{
    for (const std::uint64_t frame : frames) {
        SEESAW_ASSERT(frame < totalFrames_,
                      "free past the end of memory: frame ", frame);
        SEESAW_ASSERT(!isFrameFree(frame), "double free of frame ", frame);
        frameFree_[frame >> 6] |= std::uint64_t{1} << (frame & 63);
    }
    freeFrames_ += frames.size();
    rebuildFreeLists();
}

std::optional<std::pair<std::uint64_t, unsigned>>
BuddyAllocator::findContainingFreeBlock(std::uint64_t frame,
                                        unsigned min_order) const
{
    for (unsigned order = min_order; order <= kMaxOrder; ++order) {
        const std::uint64_t start = frame & ~(blockFrames(order) - 1);
        if (isFreeBlock(start, order))
            return std::make_pair(start, order);
    }
    return std::nullopt;
}

bool
BuddyAllocator::allocateSpecific(std::uint64_t frame, unsigned order)
{
    SEESAW_ASSERT(order <= kMaxOrder, "order too large: ", order);
    SEESAW_ASSERT((frame & (blockFrames(order) - 1)) == 0,
                  "unaligned specific allocation");
    if (frame + blockFrames(order) > totalFrames_)
        return false;

    auto block = findContainingFreeBlock(frame, order);
    if (!block)
        return false;

    auto [start, have] = *block;
    removeBlock(start, have);

    // Split the containing block, keeping only the requested sub-block.
    while (have > order) {
        --have;
        const std::uint64_t half = blockFrames(have);
        if (frame < start + half) {
            insertBlock(start + half, have);
        } else {
            insertBlock(start, have);
            start += half;
        }
    }
    SEESAW_ASSERT(start == frame, "buddy split logic error");

    markRange(frame, order, false);
    freeFrames_ -= blockFrames(order);
    return true;
}

void
BuddyAllocator::free(std::uint64_t frame, unsigned order)
{
    SEESAW_ASSERT(order <= kMaxOrder, "order too large: ", order);
    SEESAW_ASSERT((frame & (blockFrames(order) - 1)) == 0, "unaligned free");
    SEESAW_ASSERT(frame + blockFrames(order) <= totalFrames_,
                  "free past the end of memory: frame ", frame);
    SEESAW_ASSERT(!isFrameFree(frame), "double free of frame ", frame);

    markRange(frame, order, true);
    freeFrames_ += blockFrames(order);

    // Coalesce with free buddies as far as possible.
    while (order < kMaxOrder) {
        const std::uint64_t buddy = buddyOf(frame, order);
        if (!isFreeBlock(buddy, order))
            break;
        removeBlock(buddy, order);
        frame = std::min(frame, buddy);
        ++order;
    }
    insertBlock(frame, order);
}

bool
BuddyAllocator::isFrameFree(std::uint64_t frame) const
{
    SEESAW_ASSERT(frame < totalFrames_, "frame out of range");
    return ((frameFree_[frame >> 6] >> (frame & 63)) & 1) != 0;
}

std::size_t
BuddyAllocator::freeBlocksAt(unsigned order) const
{
    SEESAW_ASSERT(order <= kMaxOrder, "order too large");
    return freeLists_[order].count;
}

std::uint64_t
BuddyAllocator::freeFramesAtOrAbove(unsigned order) const
{
    std::uint64_t frames = 0;
    for (unsigned o = order; o <= kMaxOrder; ++o)
        frames += freeLists_[o].count * blockFrames(o);
    return frames;
}

double
BuddyAllocator::fragmentationIndex(unsigned order) const
{
    if (freeFrames_ == 0)
        return 1.0;
    const double high = static_cast<double>(freeFramesAtOrAbove(order));
    return 1.0 - high / static_cast<double>(freeFrames_);
}

} // namespace seesaw
