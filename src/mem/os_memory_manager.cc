#include "mem/os_memory_manager.hh"

#include <algorithm>
#include <map>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace seesaw {

OsMemoryManager::OsMemoryManager(OsParams params)
    : params_(params),
      buddy_(params.memBytes),
      rng_(params.seed),
      frameState_(buddy_.totalFrames(), FrameState::Free)
{
    seedBootNoise();
}

void
OsMemoryManager::setFrames(std::uint64_t frame, std::uint64_t count,
                           FrameState state)
{
    for (std::uint64_t i = 0; i < count; ++i)
        frameState_[frame + i] = state;
}

void
OsMemoryManager::seedBootNoise()
{
    const std::uint64_t total = buddy_.totalFrames();
    const std::uint64_t regions = total / kFramesPerSuper;

    // Clustered kernel reservations: whole 2MB page-blocks that can
    // never host a superpage (code, page tables, slab zones).
    const auto kernel_regions = static_cast<std::uint64_t>(
        regions * params_.kernelReservedFraction);
    for (std::uint64_t i = 0; i < kernel_regions; ++i) {
        auto frame = buddy_.allocate(kSuperOrder);
        if (!frame)
            break;
        setFrames(*frame, kFramesPerSuper, FrameState::Unmovable);
    }

    // Long-uptime pollution: a scattering of single unmovable frames
    // that each spoil one 2MB page-block for compaction.
    const auto polluted = static_cast<std::uint64_t>(
        regions * params_.pollutedRegionFraction);
    for (std::uint64_t i = 0; i < polluted; ++i) {
        const std::uint64_t region = rng_.nextBounded(regions);
        const std::uint64_t frame =
            region * kFramesPerSuper + rng_.nextBounded(kFramesPerSuper);
        if (buddy_.allocateSpecific(frame, 0))
            frameState_[frame] = FrameState::Unmovable;
    }
}

Asid
OsMemoryManager::createProcess()
{
    return nextAsid_++;
}

void
OsMemoryManager::destroyProcess(Asid asid)
{
    // Collect this process's frames (base pages from the reverse map,
    // superpages from the page table), then free.
    std::vector<std::uint64_t> frames4k;
    for (const auto &[frame, rev] : reverse4k_) {
        if (rev.asid == asid)
            frames4k.push_back(frame);
    }
    // Free in frame order, not hash order: the buddy free lists are
    // order-confluent, but keeping every mutation sequence
    // deterministic is a project invariant (seesaw-tidy enforces it).
    std::sort(frames4k.begin(), frames4k.end());
    for (auto frame : frames4k) {
        reverse4k_.erase(frame);
        frameState_[frame] = FrameState::Free;
        buddy_.free(frame, 0);
    }

    const auto free_superpages = [&](PageSize size,
                                     std::uint64_t frames_per,
                                     unsigned order) {
        std::vector<std::uint64_t> frames;
        for (const Translation &t : pageTable_.mappings(asid, size))
            frames.push_back(BuddyAllocator::addrToFrame(t.paBase));
        std::sort(frames.begin(), frames.end());
        for (auto frame : frames) {
            setFrames(frame, frames_per, FrameState::Free);
            buddy_.free(frame, order);
        }
    };
    free_superpages(PageSize::Super2MB, kFramesPerSuper, kSuperOrder);
    free_superpages(PageSize::Super1GB, kFramesPerGiga, kGigaOrder);

    pageTable_.clearAsid(asid);
}

bool
OsMemoryManager::compactOnce()
{
    ++compactionAttempts_;
    const std::uint64_t regions =
        buddy_.totalFrames() / kFramesPerSuper;
    if (regions == 0)
        return false;

    // Sample candidate page-blocks; keep the cheapest fully-movable one.
    std::uint64_t best_region = regions; // invalid
    unsigned best_cost = params_.compactionBudgetPages + 1;
    for (unsigned c = 0; c < params_.compactionCandidates; ++c) {
        const std::uint64_t region = rng_.nextBounded(regions);
        const std::uint64_t base = region * kFramesPerSuper;
        unsigned cost = 0;
        bool ok = true;
        for (unsigned i = 0; i < kFramesPerSuper && ok; ++i) {
            switch (frameState_[base + i]) {
              case FrameState::Free:
                break;
              case FrameState::Movable4K:
              case FrameState::RawMovable:
                ++cost;
                break;
              default:
                ok = false;
                break;
            }
        }
        if (ok && cost < best_cost) {
            best_cost = cost;
            best_region = region;
            if (cost == 0)
                break;
        }
    }

    if (best_region == regions)
        return false;
    if (!evacuateRegion(best_region * kFramesPerSuper))
        return false;

    ++compactionSuccesses_;
    return true;
}

bool
OsMemoryManager::evacuateRegion(std::uint64_t region_frame)
{
    // Claim the region's free frames first so that migration
    // destinations are allocated outside the region being evacuated.
    std::vector<std::uint64_t> claimed;
    std::vector<std::uint64_t> movers;
    for (unsigned i = 0; i < kFramesPerSuper; ++i) {
        const std::uint64_t f = region_frame + i;
        switch (frameState_[f]) {
          case FrameState::Free:
            if (!buddy_.allocateSpecific(f, 0)) {
                // Inconsistent state between buddy and frameState_.
                SEESAW_PANIC("frameState says free, buddy disagrees");
            }
            claimed.push_back(f);
            break;
          case FrameState::Movable4K:
          case FrameState::RawMovable:
            movers.push_back(f);
            break;
          default:
            for (auto c : claimed)
                buddy_.free(c, 0);
            return false;
        }
    }

    // Migrate the movable frames. Sources are not freed until the end:
    // freeing them mid-loop would let allocate(0) hand them back as
    // destinations inside the very region being evacuated.
    bool failed = false;
    std::vector<std::uint64_t> migrated_srcs;
    for (auto src : movers) {
        auto dst = buddy_.allocate(0);
        if (!dst) {
            failed = true;
            break;
        }
        // Move ownership metadata from src to dst.
        frameState_[*dst] = frameState_[src];
        if (frameState_[src] == FrameState::Movable4K) {
            auto it = reverse4k_.find(src);
            SEESAW_ASSERT(it != reverse4k_.end(),
                          "movable frame missing reverse map");
            const ReverseEntry rev = it->second;
            reverse4k_.erase(it);
            reverse4k_.emplace(*dst, rev);
            // Point the page table at the new frame.
            pageTable_.unmap(rev.asid, rev.vaBase, PageSize::Base4KB);
            const bool ok = pageTable_.map(
                rev.asid, rev.vaBase, BuddyAllocator::frameToAddr(*dst),
                PageSize::Base4KB);
            SEESAW_ASSERT(ok, "remap during migration failed");
        }
        migrated_srcs.push_back(src);
        ++pagesMigrated_;
    }

    // Release migrated sources (and claimed frames); on success the
    // whole region coalesces back to a free order-9 block.
    for (auto src : migrated_srcs) {
        frameState_[src] = FrameState::Free;
        buddy_.free(src, 0);
    }
    for (auto c : claimed)
        buddy_.free(c, 0);

    // On failure the partially migrated pages stay at their new homes
    // (harmless); the region simply is not reclaimed.
    return !failed;
}

std::optional<std::uint64_t>
OsMemoryManager::allocateSuperBlock()
{
    auto frame = buddy_.allocate(kSuperOrder);
    for (unsigned attempt = 0;
         !frame && attempt < params_.compactionMaxAttempts; ++attempt) {
        if (!compactOnce())
            break;
        frame = buddy_.allocate(kSuperOrder);
    }
    return frame;
}

bool
OsMemoryManager::tryMapSuperpage(Asid asid, Addr va_base)
{
    auto frame = allocateSuperBlock();
    if (!frame)
        return false;

    const Addr pa = BuddyAllocator::frameToAddr(*frame);
    if (!pageTable_.map(asid, va_base, pa, PageSize::Super2MB)) {
        buddy_.free(*frame, kSuperOrder);
        return false;
    }
    setFrames(*frame, kFramesPerSuper, FrameState::Super);
    ++superpagesAllocated_;
    return true;
}

void
OsMemoryManager::mapBasePages(Asid asid, Addr va, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        auto frame = buddy_.allocate(0);
        if (!frame)
            SEESAW_FATAL("out of physical memory mapping base pages");
        const Addr page_va = va + i * 4096ULL;
        if (!pageTable_.map(asid, page_va,
                            BuddyAllocator::frameToAddr(*frame),
                            PageSize::Base4KB)) {
            // Already mapped: release the frame and continue.
            buddy_.free(*frame, 0);
            continue;
        }
        frameState_[*frame] = FrameState::Movable4K;
        reverse4k_.emplace(*frame, ReverseEntry{asid, page_va});
    }
}

void
OsMemoryManager::mapAnonymous(Asid asid, Addr va_base,
                              std::uint64_t bytes,
                              double thp_eligible_fraction)
{
    SEESAW_ASSERT(va_base % 4096 == 0, "va_base must be 4KB aligned");
    const std::uint64_t super = pageBytes(PageSize::Super2MB);
    const Addr end = va_base + alignUp(bytes, 4096);

    Addr va = va_base;
    while (va < end) {
        const bool aligned_chunk =
            (va % super == 0) && (va + super <= end);
        if (aligned_chunk && params_.thpEnabled &&
            rng_.chance(thp_eligible_fraction) &&
            tryMapSuperpage(asid, va)) {
            va += super;
            continue;
        }
        // Base-page this 4KB page and move on.
        mapBasePages(asid, va, 1);
        va += 4096;
    }
}

void
OsMemoryManager::unmapRange(Asid asid, Addr va_base, std::uint64_t bytes)
{
    const Addr end = va_base + alignUp(bytes, 4096);
    for (Addr va = alignDown(va_base, 4096); va < end; va += 4096) {
        auto t = pageTable_.translate(asid, va);
        if (!t)
            continue;
        if (t->size == PageSize::Base4KB) {
            pageTable_.unmap(asid, t->vaBase, PageSize::Base4KB);
            const auto frame = BuddyAllocator::addrToFrame(t->paBase);
            reverse4k_.erase(frame);
            frameState_[frame] = FrameState::Free;
            buddy_.free(frame, 0);
        } else if (t->size == PageSize::Super2MB) {
            pageTable_.unmap(asid, t->vaBase, PageSize::Super2MB);
            const auto frame = BuddyAllocator::addrToFrame(t->paBase);
            setFrames(frame, kFramesPerSuper, FrameState::Free);
            buddy_.free(frame, kSuperOrder);
            va = t->vaBase + pageBytes(PageSize::Super2MB) - 4096;
        } else if (t->size == PageSize::Super1GB) {
            pageTable_.unmap(asid, t->vaBase, PageSize::Super1GB);
            const auto frame = BuddyAllocator::addrToFrame(t->paBase);
            setFrames(frame, kFramesPerGiga, FrameState::Free);
            buddy_.free(frame, kGigaOrder);
            va = t->vaBase + pageBytes(PageSize::Super1GB) - 4096;
        }
    }
}

std::vector<PromotionEvent>
OsMemoryManager::runPromotionPass(Asid asid, unsigned max_promotions)
{
    std::vector<PromotionEvent> events;
    const std::uint64_t super = pageBytes(PageSize::Super2MB);

    // Gather candidate regions: 2MB VA regions fully populated with
    // base pages. We scan the reverse map (khugepaged scans VMAs; the
    // effect is the same for anonymous memory).
    std::vector<Addr> candidates;
    {
        // Ordered by VA region so the candidate list — and therefore
        // which regions win when the promotion budget or superpage
        // pool runs out — never depends on hash iteration order.
        std::map<Addr, unsigned> population;
        for (const auto &[frame, rev] : reverse4k_) {
            if (rev.asid == asid)
                ++population[alignDown(rev.vaBase, super)];
        }
        for (const auto &[region, count] : population) {
            if (count == kFramesPerSuper)
                candidates.push_back(region);
        }
    }

    for (Addr region : candidates) {
        if (events.size() >= max_promotions)
            break;
        auto block = allocateSuperBlock();
        if (!block)
            break;

        // Migrate all 512 pages into the fresh block, then swap the
        // mappings: 512 base entries out, one superpage entry in.
        std::vector<std::pair<Addr, Addr>> pages; // (va, old pa)
        pageTable_.forEachBaseMappingIn2MBRegion(
            asid, region,
            [&](Addr va, Addr pa) { pages.emplace_back(va, pa); });
        SEESAW_ASSERT(pages.size() == kFramesPerSuper,
                      "promotion candidate not fully populated");

        PromotionEvent event;
        event.asid = asid;
        event.vaBase = region;
        event.oldPaBases.reserve(pages.size());
        for (const auto &[va, old_pa] : pages)
            event.oldPaBases.push_back(old_pa);

        for (const auto &[va, old_pa] : pages) {
            pageTable_.unmap(asid, va, PageSize::Base4KB);
            const auto old_frame = BuddyAllocator::addrToFrame(old_pa);
            reverse4k_.erase(old_frame);
            frameState_[old_frame] = FrameState::Free;
            buddy_.free(old_frame, 0);
            ++pagesMigrated_;
        }

        const Addr pa = BuddyAllocator::frameToAddr(*block);
        const bool ok =
            pageTable_.map(asid, region, pa, PageSize::Super2MB);
        SEESAW_ASSERT(ok, "superpage map failed during promotion");
        setFrames(*block, kFramesPerSuper, FrameState::Super);
        ++promotions_;
        event.newPaBase = pa;
        events.push_back(std::move(event));
    }
    return events;
}

std::optional<SplinterEvent>
OsMemoryManager::splinter(Asid asid, Addr va)
{
    auto t = pageTable_.translate(asid, va);
    if (!t || t->size != PageSize::Super2MB)
        return std::nullopt;

    pageTable_.unmap(asid, t->vaBase, PageSize::Super2MB);
    const auto block = BuddyAllocator::addrToFrame(t->paBase);

    // Re-map the same physical frames as 512 independent base pages;
    // no copy happens, the block is simply carved up.
    for (unsigned i = 0; i < kFramesPerSuper; ++i) {
        const Addr page_va = t->vaBase + i * 4096ULL;
        const Addr page_pa = t->paBase + i * 4096ULL;
        const bool ok =
            pageTable_.map(asid, page_va, page_pa, PageSize::Base4KB);
        SEESAW_ASSERT(ok, "base map failed during splinter");
        frameState_[block + i] = FrameState::Movable4K;
        reverse4k_.emplace(block + i, ReverseEntry{asid, page_va});
    }
    ++splinters_;
    return SplinterEvent{asid, t->vaBase};
}

bool
OsMemoryManager::mapOneGbPage(Asid asid, Addr va_base)
{
    SEESAW_ASSERT(va_base % pageBytes(PageSize::Super1GB) == 0,
                  "1GB mapping must be 1GB aligned");
    auto frame = buddy_.allocate(kGigaOrder);
    if (!frame)
        return false;
    const Addr pa = BuddyAllocator::frameToAddr(*frame);
    if (!pageTable_.map(asid, va_base, pa, PageSize::Super1GB)) {
        buddy_.free(*frame, kGigaOrder);
        return false;
    }
    setFrames(*frame, kFramesPerGiga, FrameState::Super);
    ++superpagesAllocated_;
    return true;
}

std::vector<std::uint64_t>
OsMemoryManager::allocateRawFrames(std::uint64_t count, bool movable)
{
    std::vector<std::uint64_t> frames = buddy_.allocateFrames(count);
    const FrameState state =
        movable ? FrameState::RawMovable : FrameState::Unmovable;
    for (const std::uint64_t frame : frames)
        frameState_[frame] = state;
    return frames;
}

void
OsMemoryManager::freeRawFrames(std::span<const std::uint64_t> frames)
{
    for (const std::uint64_t frame : frames) {
        SEESAW_ASSERT(frameState_[frame] == FrameState::RawMovable ||
                          frameState_[frame] == FrameState::Unmovable,
                      "freeRawFrames on a non-raw frame");
        frameState_[frame] = FrameState::Free;
    }
    buddy_.freeFrames(frames);
}

void
OsMemoryManager::pinRawFrame(std::uint64_t frame)
{
    SEESAW_ASSERT(frameState_[frame] == FrameState::RawMovable,
                  "pinRawFrame on a non-raw-movable frame");
    frameState_[frame] = FrameState::Unmovable;
}

std::vector<Addr>
OsMemoryManager::superpageVas(Asid asid) const
{
    std::vector<Addr> vas;
    for (const Translation &t :
         pageTable_.mappings(asid, PageSize::Super2MB))
        vas.push_back(t.vaBase);
    return vas;
}

double
OsMemoryManager::superpageCoverage(Asid asid) const
{
    const auto total = pageTable_.mappedBytes(asid);
    if (total == 0)
        return 0.0;
    const auto super =
        pageTable_.mappedBytes(asid, PageSize::Super2MB) +
        pageTable_.mappedBytes(asid, PageSize::Super1GB);
    return static_cast<double>(super) / static_cast<double>(total);
}

} // namespace seesaw
