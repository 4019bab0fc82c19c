/**
 * @file
 * Fig 9: avg/min/max percent runtime improvement of SEESAW over
 * baseline VIPT on the in-order (Atom-like) core, across all
 * workloads, for every (cache size, frequency) pair.
 *
 * Expected shape: same trends as Fig 8 but uniformly higher (3-5
 * points) — an in-order pipeline cannot hide L1 latency with
 * independent work.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Fig 9", "% runtime improvement, SEESAW vs baseline "
                         "(in-order), avg/min/max across workloads");

    const CoreKind cores[] = {CoreKind::InOrder, CoreKind::OutOfOrder};
    const auto point = [](CoreKind core, double freq, const CacheOrg &org) {
        return std::string(nameOf(kCoreNames, core)) + "/" +
               TableReporter::fmt(freq, 2) + "GHz/" + org.label;
    };
    harness::CampaignSpec spec("fig09_runtime_inorder_freq");
    spec.workloads(paperWorkloads());
    for (double freq : kFrequencies) {
        for (const auto &org : kCacheOrgs) {
            for (CoreKind core : cores) {
                SystemConfig cfg = makeConfig(org, freq, 200'000);
                cfg.coreKind = core;
                addDesignPair(spec, point(core, freq, org), cfg);
            }
        }
    }
    const auto outcome = runBenchCampaign(spec);
    const auto gain = [&](const WorkloadSpec &w, CoreKind core,
                          double freq, const CacheOrg &org) {
        return findDesignPair(outcome,
                              w.name + "/" + point(core, freq, org))
            .runtimeImprovementPct;
    };

    TableReporter table({"freq", "cache", "avg", "min", "max"});
    double inorder_avg_sum = 0.0, ooo_avg_sum = 0.0;
    int points = 0;
    for (double freq : kFrequencies) {
        for (const auto &org : kCacheOrgs) {
            std::vector<double> ino_gains, ooo_gains;
            for (const auto &w : paperWorkloads()) {
                ino_gains.push_back(
                    gain(w, CoreKind::InOrder, freq, org));
                ooo_gains.push_back(
                    gain(w, CoreKind::OutOfOrder, freq, org));
            }
            const Summary s = summarize(ino_gains);
            inorder_avg_sum += s.avg;
            ooo_avg_sum += summarize(ooo_gains).avg;
            ++points;
            table.addRow({TableReporter::fmt(freq, 2) + "GHz",
                          org.label, TableReporter::pct(s.avg, 1),
                          TableReporter::pct(s.min, 1),
                          TableReporter::pct(s.max, 1)});
        }
    }
    table.print();

    std::printf("\nShape check (paper): in-order benefits exceed "
                "out-of-order by ~3-5 points\n(same frequency caveat "
                "as Fig 8).\n");
    std::printf("  measured: in-order avg %.1f%% vs out-of-order avg "
                "%.1f%% (gap %.1f points)\n",
                inorder_avg_sum / points, ooo_avg_sum / points,
                (inorder_avg_sum - ooo_avg_sum) / points);
    return 0;
}
