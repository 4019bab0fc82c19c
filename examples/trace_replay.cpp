/**
 * @file
 * Low-level API example: capture a reference trace to disk (the same
 * binary format an external Pin-style tool could produce), then
 * replay it through hand-wired components — OS memory manager, TLB
 * hierarchy, TFT-linked SEESAW cache — instead of the simulation engine
 * (SimEngine / MultiConfigEngine).
 *
 * This is the integration path for users who have their own traces.
 *
 *   $ ./build/examples/trace_replay
 */

#include <cstdio>
#include <string>

#include "core/seesaw_cache.hh"
#include "mem/os_memory_manager.hh"
#include "tlb/tlb_hierarchy.hh"
#include "workload/trace.hh"

int
main()
{
    using namespace seesaw;

    const std::string path = "/tmp/seesaw_example.trace";
    const Addr heap = Addr{1} << 40;

    // --- 1. Capture: write 200K references of a generated workload.
    WorkloadSpec spec = findWorkload("mcf");
    spec.footprintBytes = 16ULL << 20;
    {
        ReferenceStream stream(spec, heap, /*seed=*/7);
        TraceWriter writer(path);
        for (int i = 0; i < 200'000; ++i)
            writer.append(stream.next());
        std::printf("captured %llu records to %s\n",
                    static_cast<unsigned long long>(writer.records()),
                    path.c_str());
    }

    // --- 2. Wire up the components by hand.
    OsMemoryManager os;
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, heap, spec.footprintBytes,
                    spec.thpEligibleFraction);

    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(),
                     os.pageTable());
    LatencyTable latency;
    SeesawConfig cache_cfg; // 32KB, 8-way, 2 partitions, 16-entry TFT
    SeesawCache cache(cache_cfg, latency);

    // The TFT learns superpage regions from 2MB L1 TLB fills (Fig 5).
    tlb.setOn2MBFill([&cache](Asid, Addr va_base) {
        cache.tft().markRegion(va_base);
    });

    // --- 3. Replay.
    TraceReader reader(path);
    std::uint64_t refs = 0, hits = 0, fast = 0, cycles = 0;
    while (auto ref = reader.next()) {
        const TlbLookupResult tr = tlb.lookup(asid, ref->va);
        if (tr.fault) {
            std::fprintf(stderr, "unmapped address in trace\n");
            return 1;
        }
        const Addr pa = tr.translation.translate(ref->va);
        const L1AccessResult res = cache.access(
            {ref->va, pa, tr.translation.size, ref->type});
        ++refs;
        hits += res.hit ? 1 : 0;
        fast += res.fastPath ? 1 : 0;
        cycles += res.latencyCycles + tr.penaltyCycles;
    }

    std::printf("replayed  %llu references\n",
                static_cast<unsigned long long>(refs));
    std::printf("L1 hits   %5.1f%%\n", 100.0 * hits / refs);
    std::printf("fast path %5.1f%% (TFT-confirmed superpage lookups)\n",
                100.0 * fast / refs);
    std::printf("avg L1+TLB latency %.2f cycles\n",
                static_cast<double>(cycles) / refs);
    std::printf("TFT: %llu lookups, %.1f%% hit rate, %u/%u entries "
                "valid\n",
                static_cast<unsigned long long>(
                    cache.tft().stats().get("lookups")),
                100.0 * cache.tft().stats().get("hits") /
                    cache.tft().stats().get("lookups"),
                cache.tft().validCount(), cache.tft().entries());

    std::remove(path.c_str());
    return 0;
}
