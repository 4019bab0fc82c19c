/**
 * @file
 * Fig 12: SEESAW's performance and energy benefits under memory
 * fragmentation — memhog holding 0%, 30% and 60% of physical memory
 * (64KB L1, OoO, 1.33GHz; the paper's 8 cloud-centric workloads).
 *
 * Runs as a parallel campaign — one cell per (workload, memhog level,
 * design) — archiving results/fig12_fragmentation.{json,csv}.
 *
 * Expected shape: benefits shrink with fragmentation but remain
 * clearly positive (~4-6%) even at memhog(60%).
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

    printBanner("Fig 12", "Performance/energy benefits vs memhog "
                          "fragmentation (64KB, OoO, 1.33GHz)");

    const double levels[] = {0.0, 0.3, 0.6};
    const auto level_label = [](double level) {
        return "mh" + std::to_string(static_cast<int>(level * 100));
    };

    harness::CampaignSpec spec("fig12_fragmentation");
    spec.workloads(cloudWorkloads());
    for (double level : levels) {
        SystemConfig cfg = policy.apply(makeConfig(kCacheOrgs[1], 1.33));
        cfg.memhogFraction = level;
        addDesignPair(spec, level_label(level), cfg);
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"workload", "memhog", "coverage", "perf",
                         "energy"});
    double perf_sums[3] = {0, 0, 0}, energy_sums[3] = {0, 0, 0};
    for (const auto &w : cloudWorkloads()) {
        int col = 0;
        for (double level : levels) {
            const auto cmp =
                findDesignPair(outcome, w.name + "/" + level_label(level));
            const double perf = cmp.runtimeImprovementPct;
            const double energy = cmp.energySavedPct;
            perf_sums[col] += perf;
            energy_sums[col] += energy;
            ++col;
            table.addRow(
                {w.name, level_label(level),
                 TableReporter::pct(100.0 * cmp.seesaw.superpageCoverage,
                                    0),
                 TableReporter::pct(perf, 1),
                 TableReporter::pct(energy, 1)});
        }
    }
    for (int col = 0; col < 3; ++col) {
        table.addRow(
            {"average", level_label(levels[col]), "-",
             TableReporter::pct(perf_sums[col] / cloudWorkloads().size(),
                                1),
             TableReporter::pct(
                 energy_sums[col] / cloudWorkloads().size(), 1)});
    }
    table.print();

    std::printf("\nShape check (paper): benefits decrease with memhog "
                "load but stay positive; OS compaction keeps superpages "
                "ample even at 60%%.\n");
    return 0;
}
