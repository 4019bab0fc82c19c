/**
 * @file
 * Extension study (§IV-A2): TFT geometry. The paper uses a 16-entry
 * direct-mapped TFT and notes set-associative implementations are
 * possible. This bench sweeps entry count and associativity and
 * reports the superpage-access miss rate, storage cost and runtime
 * benefit — showing why 16x1 is the sweet spot the paper picked.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/tft.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Extension: TFT geometry",
                "entries x associativity sweep (32KB L1, OoO, "
                "1.33GHz)");

    struct Geometry
    {
        unsigned entries;
        unsigned assoc;
    };
    std::vector<Geometry> geometries;
    for (unsigned entries : {8u, 12u, 16u, 20u, 32u}) {
        for (unsigned assoc : {1u, 2u, 4u}) {
            if (entries % assoc == 0)
                geometries.push_back({entries, assoc});
        }
    }
    const auto label = [](const Geometry &g) {
        return std::to_string(g.entries) + "x" + std::to_string(g.assoc);
    };
    harness::CampaignSpec spec("ablation_tft_geometry");
    spec.workloads(cloudWorkloads());
    for (const auto &g : geometries) {
        SystemConfig cfg = makeConfig(kCacheOrgs[0], 1.33, 150'000);
        cfg.tftEntries = g.entries;
        cfg.tftAssoc = g.assoc;
        addDesignPair(spec, label(g), cfg);
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"TFT", "storage(B)", "miss avg", "miss max",
                         "perf vs baseline"});
    for (const auto &g : geometries) {
        std::vector<double> misses, perfs;
        for (const auto &w : cloudWorkloads()) {
            const auto cmp = findDesignPair(outcome, w.name + "/" + label(g));
            if (cmp.seesaw.superpageRefs > 0) {
                misses.push_back(100.0 * cmp.seesaw.superpageRefsTftMiss /
                                 cmp.seesaw.superpageRefs);
            }
            perfs.push_back(cmp.runtimeImprovementPct);
        }
        const Tft probe(g.entries, g.assoc);
        const Summary miss = summarize(misses);
        table.addRow({label(g),
                      TableReporter::fmt(probe.storageBytes(), 0),
                      TableReporter::pct(miss.avg, 2),
                      TableReporter::pct(miss.max, 2),
                      TableReporter::pct(summarize(perfs).avg, 2)});
    }
    table.print();

    std::printf("\nShape check (paper): 16 direct-mapped entries (86B) "
                "already capture the vast majority of superpage "
                "accesses; bigger or associative TFTs buy little.\n");
    return 0;
}
