/**
 * @file
 * Fundamental type aliases shared across the SEESAW simulator.
 */

#ifndef SEESAW_COMMON_TYPES_HH
#define SEESAW_COMMON_TYPES_HH

#include <cstdint>

namespace seesaw {

/** A virtual or physical memory address (byte granularity). */
using Addr = std::uint64_t;

/** The widest virtual address the simulator models: every VA is
 *  below 2^58, so a 4KB page number fits a TLB key's 46 VPN bits.
 *  Addresses read from outside (traces) are checked against it. */
constexpr unsigned kVirtualAddressBits = 58;

/** A simulation time expressed in core clock cycles. */
using Cycles = std::uint64_t;

/** A count of simulated instructions. */
using InstCount = std::uint64_t;

/** Energy in picojoules; kept integral at pJ granularity upstream and
 *  converted to nJ/uJ only for reporting. */
using PicoJoules = double;

/** An address-space identifier (per process). */
using Asid = std::uint16_t;

/** Identifier of a core in a multi-core system. */
using CoreId = std::uint32_t;

/** The supported x86-64 page sizes. */
enum class PageSize : std::uint8_t {
    Base4KB,
    Super2MB,
    Super1GB,
};

/** @return The page-offset width in bits for @p size. */
constexpr unsigned
pageOffsetBits(PageSize size)
{
    switch (size) {
      case PageSize::Base4KB: return 12;
      case PageSize::Super2MB: return 21;
      case PageSize::Super1GB: return 30;
    }
    return 12;
}

/** @return The page size in bytes for @p size. */
constexpr std::uint64_t
pageBytes(PageSize size)
{
    return std::uint64_t{1} << pageOffsetBits(size);
}

/** @return True if @p size is larger than the base page size. */
constexpr bool
isSuperpage(PageSize size)
{
    return size != PageSize::Base4KB;
}

/** Whether a memory reference reads or writes. */
enum class AccessType : std::uint8_t {
    Read,
    Write,
};

/** Kind of L1 lookup: CPU-initiated (virtual address available) or a
 *  coherence probe (physical address only). */
enum class LookupOrigin : std::uint8_t {
    Cpu,
    Coherence,
};

} // namespace seesaw

#endif // SEESAW_COMMON_TYPES_HH
