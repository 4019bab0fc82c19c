/**
 * @file
 * Extension study (§IV): 1GB superpages. The paper focuses on 2MB
 * pages because transparent 1GB support is immature, but notes the
 * approach "generalizes readily to 1GB superpages too". This bench
 * backs the heap with explicit (hugetlbfs-style) 1GB pages and
 * compares against THP-2MB and base-page-only heaps: with 30 offset
 * bits, every access inside a 1GB page takes the fast partition path,
 * and the TFT marks the accessed 2MB regions exactly as for 2MB pages.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Extension: 1GB superpages",
                "base-only vs THP-2MB vs 1GB heap (64KB, OoO, "
                "1.33GHz)");

    struct Mode
    {
        const char *label;
        bool thp;
        bool one_gb;
    };
    const Mode modes[] = {
        {"4KB only", false, false},
        {"THP 2MB", true, false},
        {"1GB pages", true, true},
    };

    const char *names[] = {"redis", "mongo", "g500", "mcf"};
    harness::CampaignSpec spec("ablation_1gb_pages");
    for (const char *name : names)
        spec.workload(findWorkload(name));
    for (const auto &mode : modes) {
        SystemConfig cfg = makeConfig(kCacheOrgs[1], 1.33, 150'000);
        cfg.os.thpEnabled = mode.thp;
        cfg.useOneGbHeap = mode.one_gb;
        cfg.os.memBytes =
            std::max<std::uint64_t>(cfg.os.memBytes, 4ULL << 30);
        if (mode.one_gb) {
            // 1GB pages are reserved at boot (hugetlbfs) before
            // kernel allocations fragment gigabyte contiguity.
            cfg.os.kernelReservedFraction = 0.0;
            cfg.os.pollutedRegionFraction = 0.0;
        }
        addDesignPair(spec, mode.label, cfg);
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"workload", "heap", "superpage refs",
                         "TFT hitrate", "perf", "energy"});
    for (const char *name : names) {
        for (const auto &mode : modes) {
            const auto cmp = findDesignPair(
                outcome, std::string(name) + "/" + mode.label);
            const double tft_hit =
                cmp.seesaw.tftLookups
                    ? 100.0 * cmp.seesaw.tftHits /
                          cmp.seesaw.tftLookups
                    : 0.0;
            table.addRow(
                {name, mode.label,
                 TableReporter::pct(
                     100.0 * cmp.seesaw.superpageRefFraction, 1),
                 TableReporter::pct(tft_hit, 1),
                 TableReporter::pct(cmp.runtimeImprovementPct, 2),
                 TableReporter::pct(cmp.energySavedPct, 2)});
        }
    }
    table.print();

    std::printf(
        "\nShape check: 1GB pages match or beat THP-2MB (fewer TLB "
        "misses, full fast-path\ncoverage). The 4KB-only rows expose "
        "the 4way insertion policy's ~1%% hit-rate\ncost with nothing "
        "to offset it — the paper's superpage-present figures never "
        "hit\nthis corner, and production systems always have some "
        "superpages (Fig 3).\n");
    return 0;
}
