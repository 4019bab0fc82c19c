/**
 * @file
 * Fig 13: percentage of superpage accesses the TFT fails to identify,
 * for 12/16/20-entry TFTs and 32/64/128KB caches, split into TFT
 * misses that hit vs miss in the L1 (avg/min/max across workloads).
 *
 * Expected shape: a 16-entry TFT keeps worst-case miss rates under
 * ~10%; 20 entries barely improve on 16; the bulk of TFT misses
 * coincide with L1 misses (so the extra partition read hides under
 * the L2 access).
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Fig 13", "% superpage accesses missed by the TFT "
                          "(split by L1 hit/miss)");

    const unsigned tft_sizes[] = {12u, 16u, 20u};
    const auto point = [](unsigned entries, const CacheOrg &org) {
        return "tft" + std::to_string(entries) + "/" + org.label;
    };
    harness::CampaignSpec spec("fig13_tft_analysis");
    spec.workloads(paperWorkloads());
    for (unsigned entries : tft_sizes) {
        for (const auto &org : kCacheOrgs) {
            SystemConfig cfg = makeConfig(org, 1.33, 200'000);
            cfg.tftEntries = entries;
            spec.variant(point(entries, org), cfg);
        }
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"TFT", "cache", "L1-hit avg", "L1-miss avg",
                         "total avg", "min", "max"});
    for (unsigned entries : tft_sizes) {
        for (const auto &org : kCacheOrgs) {
            std::vector<double> totals, hit_rates, miss_rates;
            for (const auto &w : paperWorkloads()) {
                const RunResult &r = harness::findResult(
                    outcome.results, w.name + "/" + point(entries, org));
                if (r.superpageRefs == 0)
                    continue;
                const double denom =
                    static_cast<double>(r.superpageRefs);
                totals.push_back(100.0 * r.superpageRefsTftMiss /
                                 denom);
                hit_rates.push_back(
                    100.0 * r.superpageRefsTftMissL1Hit / denom);
                miss_rates.push_back(
                    100.0 * r.superpageRefsTftMissL1Miss / denom);
            }
            const Summary total = summarize(totals);
            table.addRow({std::to_string(entries) + "-entry",
                          org.label,
                          TableReporter::pct(summarize(hit_rates).avg,
                                             2),
                          TableReporter::pct(summarize(miss_rates).avg,
                                             2),
                          TableReporter::pct(total.avg, 2),
                          TableReporter::pct(total.min, 2),
                          TableReporter::pct(total.max, 2)});
        }
    }
    table.print();

    std::printf("\nShape check (paper): 16 entries keep even the worst "
                "case under ~10%%; 20 entries add little; most TFT "
                "misses are L1 misses anyway.\n");
    return 0;
}
