#include "mem/page_table.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace seesaw {

const PageTable::AddressSpace *
PageTable::space(Asid asid) const
{
    auto it = spaces_.find(asid);
    return it == spaces_.end() ? nullptr : &it->second;
}

bool
PageTable::overlaps(const AddressSpace &as, Addr va,
                    std::uint64_t bytes) const
{
    // 1GB pages covering the range?
    for (Addr r = alignDown(va, pageBytes(PageSize::Super1GB));
         r < va + bytes; r += pageBytes(PageSize::Super1GB)) {
        if (as.super1g.count(r >> 30))
            return true;
    }
    // 2MB pages covering the range?
    for (Addr r = alignDown(va, pageBytes(PageSize::Super2MB));
         r < va + bytes; r += pageBytes(PageSize::Super2MB)) {
        if (as.super2m.count(r >> 21))
            return true;
    }
    // 4KB pages inside the range?
    for (Addr p = alignDown(va, pageBytes(PageSize::Base4KB));
         p < va + bytes; p += pageBytes(PageSize::Base4KB)) {
        if (as.base4k.count(p >> 12))
            return true;
    }
    return false;
}

bool
PageTable::map(Asid asid, Addr va_base, Addr pa_base, PageSize size)
{
    const std::uint64_t bytes = pageBytes(size);
    SEESAW_ASSERT(va_base % bytes == 0, "unaligned va_base");
    SEESAW_ASSERT(pa_base % bytes == 0, "unaligned pa_base");

    auto &as = spaces_[asid];
    if (overlaps(as, va_base, bytes))
        return false;

    switch (size) {
      case PageSize::Base4KB:
        as.base4k.emplace(va_base >> 12, pa_base);
        break;
      case PageSize::Super2MB:
        as.super2m.emplace(va_base >> 21, pa_base);
        break;
      case PageSize::Super1GB:
        as.super1g.emplace(va_base >> 30, pa_base);
        break;
    }
    return true;
}

std::optional<Translation>
PageTable::unmap(Asid asid, Addr va_base, PageSize size)
{
    auto it = spaces_.find(asid);
    if (it == spaces_.end())
        return std::nullopt;
    auto &as = it->second;

    auto erase_from = [&](std::unordered_map<Addr, Addr> &table,
                          unsigned shift) -> std::optional<Translation> {
        auto entry = table.find(va_base >> shift);
        if (entry == table.end())
            return std::nullopt;
        Translation t{entry->second, va_base, size};
        table.erase(entry);
        tcache_.invalidateAll();
        return t;
    };

    switch (size) {
      case PageSize::Base4KB: return erase_from(as.base4k, 12);
      case PageSize::Super2MB: return erase_from(as.super2m, 21);
      case PageSize::Super1GB: return erase_from(as.super1g, 30);
    }
    return std::nullopt;
}

std::optional<Translation>
PageTable::translateMissing(Asid asid, Addr va) const
{
    auto t = translateSlow(asid, va);
    if (t)
        tcache_.fill(asid, va, t->paBase, t->vaBase, t->size);
    return t;
}

std::optional<Translation>
PageTable::translateSlow(Asid asid, Addr va) const
{
    const auto *as = space(asid);
    if (!as)
        return std::nullopt;

    if (auto it = as->base4k.find(va >> 12); it != as->base4k.end()) {
        return Translation{it->second, alignDown(va, 4096),
                           PageSize::Base4KB};
    }
    if (auto it = as->super2m.find(va >> 21); it != as->super2m.end()) {
        return Translation{it->second, alignDown(va, 2 * 1024 * 1024),
                           PageSize::Super2MB};
    }
    if (auto it = as->super1g.find(va >> 30); it != as->super1g.end()) {
        return Translation{it->second,
                           alignDown(va, 1024 * 1024 * 1024),
                           PageSize::Super1GB};
    }
    return std::nullopt;
}

unsigned
PageTable::walkLevels(PageSize size)
{
    switch (size) {
      case PageSize::Base4KB: return 4;
      case PageSize::Super2MB: return 3;
      case PageSize::Super1GB: return 2;
    }
    return 4;
}

void
PageTable::forEachBaseMappingIn2MBRegion(
    Asid asid, Addr region_va,
    const std::function<void(Addr va, Addr pa)> &fn) const
{
    const auto *as = space(asid);
    if (!as)
        return;
    const Addr base = alignDown(region_va, 2 * 1024 * 1024);
    for (unsigned i = 0; i < 512; ++i) {
        const Addr va = base + i * 4096ULL;
        auto it = as->base4k.find(va >> 12);
        if (it != as->base4k.end())
            fn(va, it->second);
    }
}

unsigned
PageTable::baseMappingsIn2MBRegion(Asid asid, Addr region_va) const
{
    unsigned count = 0;
    forEachBaseMappingIn2MBRegion(asid, region_va,
                                  [&](Addr, Addr) { ++count; });
    return count;
}

std::vector<Translation>
PageTable::mappings(Asid asid, PageSize size) const
{
    std::vector<Translation> out;
    const auto *as = space(asid);
    if (!as)
        return out;
    const std::unordered_map<Addr, Addr> &table =
        size == PageSize::Base4KB    ? as->base4k
        : size == PageSize::Super2MB ? as->super2m
                                     : as->super1g;
    const unsigned shift = pageOffsetBits(size);
    out.reserve(table.size());
    for (const auto &[vpn, pa] : table)
        out.push_back(Translation{pa, vpn << shift, size});
    std::sort(out.begin(), out.end(),
              [](const Translation &a, const Translation &b) {
                  return a.vaBase < b.vaBase;
              });
    return out;
}

std::uint64_t
PageTable::mappedBytes(Asid asid) const
{
    const auto *as = space(asid);
    if (!as)
        return 0;
    return as->base4k.size() * pageBytes(PageSize::Base4KB) +
           as->super2m.size() * pageBytes(PageSize::Super2MB) +
           as->super1g.size() * pageBytes(PageSize::Super1GB);
}

std::uint64_t
PageTable::mappedBytes(Asid asid, PageSize size) const
{
    const auto *as = space(asid);
    if (!as)
        return 0;
    switch (size) {
      case PageSize::Base4KB:
        return as->base4k.size() * pageBytes(size);
      case PageSize::Super2MB:
        return as->super2m.size() * pageBytes(size);
      case PageSize::Super1GB:
        return as->super1g.size() * pageBytes(size);
    }
    return 0;
}

void
PageTable::clearAsid(Asid asid)
{
    spaces_.erase(asid);
    tcache_.invalidateAll();
}

} // namespace seesaw
