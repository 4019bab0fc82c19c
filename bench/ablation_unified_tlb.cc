/**
 * @file
 * Extension study (Fig 4's note): SEESAW under an ARM/SPARC-style
 * fully-associative unified L1 TLB instead of Intel-style split L1
 * TLBs. The TFT is driven by the same superpage-fill signal either
 * way; the benefit should survive the organisation change.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Extension: unified L1 TLB",
                "split vs fully-associative unified (64KB, OoO, "
                "1.33GHz)");

    struct Org
    {
        const char *label;
        bool unified;
        unsigned entries;
    };
    const Org orgs[] = {
        {"split (Sandybridge)", false, 0},
        {"unified 32-entry", true, 32},
        {"unified 64-entry", true, 64},
        {"unified 128-entry", true, 128},
    };

    harness::CampaignSpec spec("ablation_unified_tlb");
    spec.workloads(cloudWorkloads());
    for (const auto &org : orgs) {
        SystemConfig cfg = makeConfig(kCacheOrgs[1], 1.33, 150'000);
        cfg.unifiedL1Tlb = org.unified;
        cfg.unifiedL1TlbEntries = org.entries ? org.entries : 64;
        addDesignPair(spec, org.label, cfg);
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"TLB", "perf avg", "energy avg",
                         "TFT miss avg"});
    for (const auto &org : orgs) {
        std::vector<double> perfs, energies, misses;
        for (const auto &w : cloudWorkloads()) {
            const auto cmp =
                findDesignPair(outcome, w.name + "/" + org.label);
            perfs.push_back(cmp.runtimeImprovementPct);
            energies.push_back(cmp.energySavedPct);
            if (cmp.seesaw.superpageRefs > 0) {
                misses.push_back(
                    100.0 * cmp.seesaw.superpageRefsTftMiss /
                    cmp.seesaw.superpageRefs);
            }
        }
        table.addRow({org.label,
                      TableReporter::pct(summarize(perfs).avg, 2),
                      TableReporter::pct(summarize(energies).avg, 2),
                      TableReporter::pct(summarize(misses).avg, 2)});
    }
    table.print();

    std::printf("\nShape check (paper, Fig 4): SEESAW is \"amenable to "
                "both split TLB and unified TLB configurations\" — the "
                "benefit persists across organisations.\n");
    return 0;
}
