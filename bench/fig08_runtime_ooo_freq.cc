/**
 * @file
 * Fig 8: avg/min/max percent runtime improvement of SEESAW over
 * baseline VIPT on the out-of-order core, across all workloads, for
 * every (cache size, frequency) pair.
 *
 * Expected shape: benefits grow with both cache size and clock
 * frequency (the baseline full-set access takes more cycles).
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Fig 8", "% runtime improvement, SEESAW vs baseline "
                         "(OoO), avg/min/max across workloads");

    const auto point = [](double freq, const CacheOrg &org) {
        return TableReporter::fmt(freq, 2) + "GHz/" + org.label;
    };
    harness::CampaignSpec spec("fig08_runtime_ooo_freq");
    spec.workloads(paperWorkloads());
    for (double freq : kFrequencies) {
        for (const auto &org : kCacheOrgs)
            addDesignPair(spec, point(freq, org),
                          makeConfig(org, freq, 200'000));
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"freq", "cache", "avg", "min", "max"});
    for (double freq : kFrequencies) {
        for (const auto &org : kCacheOrgs) {
            std::vector<double> gains;
            for (const auto &w : paperWorkloads()) {
                gains.push_back(
                    findDesignPair(outcome, w.name + "/" + point(freq, org))
                        .runtimeImprovementPct);
            }
            const Summary s = summarize(gains);
            table.addRow({TableReporter::fmt(freq, 2) + "GHz",
                          org.label, TableReporter::pct(s.avg, 1),
                          TableReporter::pct(s.min, 1),
                          TableReporter::pct(s.max, 1)});
        }
    }
    table.print();

    std::printf(
        "\nShape check (paper): improvement rises with cache size at "
        "every frequency.\nKnown divergence: the paper also reports "
        "gains rising with frequency; here fixed-ns\nouter-memory "
        "penalties consume more cycles at higher clocks, diluting the "
        "percentage\n(our workload models carry higher MPKI than the "
        "paper's traces).\n");
    return 0;
}
