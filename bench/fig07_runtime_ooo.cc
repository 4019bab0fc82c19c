/**
 * @file
 * Fig 7: per-workload percent runtime improvement of SEESAW over
 * baseline VIPT on the out-of-order core at 1.33GHz, for 32KB, 64KB
 * and 128KB L1 caches.
 *
 * Runs as a parallel campaign (SEESAW_JOBS workers) — one cell per
 * (workload, cache org, design) — and archives every RunResult to
 * results/fig07_runtime_ooo.{json,csv} beside the printed table.
 *
 * Expected shape: every workload improves; bigger caches improve more
 * (their baseline full-set hit is slower); cloud workloads (redis,
 * olio, tunk, mongo) are among the biggest winners; averages 5-11%.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace seesaw;
    using namespace seesaw::bench;

    PolicyArgs policy;
    parseBenchArgs(argc, argv, policy);

    printBanner("Fig 7", "% runtime improvement, SEESAW vs baseline "
                         "VIPT (OoO, 1.33GHz)");

    harness::CampaignSpec spec("fig07_runtime_ooo");
    spec.workloads(paperWorkloads());
    for (const auto &org : kCacheOrgs)
        addDesignPair(spec, org.label, policy.apply(makeConfig(org, 1.33)));
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"workload", "32KB", "64KB", "128KB"});
    double sums[3] = {0, 0, 0};
    for (const auto &w : paperWorkloads()) {
        std::vector<std::string> row{w.name};
        int col = 0;
        for (const auto &org : kCacheOrgs) {
            const double improvement =
                findDesignPair(outcome, w.name + "/" + org.label)
                    .runtimeImprovementPct;
            sums[col++] += improvement;
            row.push_back(TableReporter::pct(improvement, 1));
        }
        table.addRow(row);
    }
    {
        std::vector<std::string> row{"average"};
        for (double s : sums)
            row.push_back(
                TableReporter::pct(s / paperWorkloads().size(), 1));
        table.addRow(row);
    }
    table.print();

    std::printf("\nShape check (paper): all positive; improvement grows "
                "with cache size; averages 5-11%% across 32-128KB.\n");
    return 0;
}
