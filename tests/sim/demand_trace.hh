/**
 * @file
 * The demand-faulting trace the trace tests share: 64 reads, one per
 * 2MB region, far outside the heap the engine premaps, so the first
 * touch of every region takes a demand fault.
 */

#ifndef SEESAW_TESTS_SIM_DEMAND_TRACE_HH
#define SEESAW_TESTS_SIM_DEMAND_TRACE_HH

#include <gtest/gtest.h>

#include <string>

#include "workload/trace.hh"

namespace seesaw::test {

/** Writes the trace under the test temp dir; @return its path. */
inline std::string
writeDemandFaultingTrace(const std::string &name)
{
    const std::string path = std::string(::testing::TempDir()) + "/" + name;
    TraceWriter writer(path);
    for (int i = 0; i < 64; ++i)
        writer.append(MemRef{10, (Addr{3} << 40) + i * 0x200000ULL,
                             AccessType::Read});
    return path;
}

} // namespace seesaw::test

#endif // SEESAW_TESTS_SIM_DEMAND_TRACE_HH
