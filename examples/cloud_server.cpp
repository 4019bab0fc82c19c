/**
 * @file
 * Scenario example: a long-uptime cloud server.
 *
 * Models the situation the paper's introduction motivates: a server
 * that has been up for months, with memory fragmented by co-running
 * jobs (memhog), running memory-hungry cloud services (redis, mongo,
 * olio, tunkrank). Shows how the OS's compaction keeps superpages
 * available, and how SEESAW's benefit tracks the superpage supply —
 * including the effect of runtime promotion and splintering churn.
 *
 * The 4 services × 4 memhog levels × VIPT/SEESAW points are one
 * campaign, run on SEESAW_JOBS workers (hardware_concurrency when
 * unset) and archived to results/cloud_server.json|csv
 * (SEESAW_RESULTS_DIR moves them).
 *
 *   $ ./build/examples/cloud_server
 */

#include <cstdio>
#include <string>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("cloud_server",
                "SEESAW on a fragmented, long-uptime server");

    const char *services[] = {"redis", "mongo", "olio", "tunk"};
    const double fragmentation[] = {0.0, 0.3, 0.6, 0.8};
    const auto percent = [](double frag) {
        return std::to_string(static_cast<int>(frag * 100));
    };

    harness::CampaignSpec spec("cloud_server");
    for (const char *service : services)
        spec.workload(findWorkload(service));
    for (double frag : fragmentation) {
        SystemConfig cfg;
        cfg.l1SizeBytes = 64 * 1024;
        cfg.l1Assoc = 16;
        cfg.freqGhz = 1.33;
        cfg.instructions = 400'000;
        cfg.memhogFraction = frag;
        // Exercise the OS churn paths: frequent khugepaged passes and
        // occasional splinters (mprotect on a sub-range).
        cfg.promotionInterval = 100'000;
        cfg.splinterInterval = 150'000;
        addDesignPair(spec, "mh" + percent(frag), cfg);
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"service", "memhog", "coverage",
                         "promotions", "splinters", "speedup",
                         "energy saved"});

    for (const char *service : services) {
        for (double frag : fragmentation) {
            const DesignComparison cmp = findDesignPair(
                outcome, std::string(service) + "/mh" + percent(frag));
            table.addRow(
                {service, percent(frag) + "%",
                 TableReporter::pct(
                     100.0 * cmp.seesaw.superpageCoverage, 0),
                 std::to_string(cmp.seesaw.promotions),
                 std::to_string(cmp.seesaw.splinters),
                 TableReporter::pct(cmp.runtimeImprovementPct, 1),
                 TableReporter::pct(cmp.energySavedPct, 1)});
        }
    }
    table.print();

    std::printf(
        "\nReading the table: coverage is what the OS could allocate "
        "as 2MB pages after fragmentation;\nSEESAW's speedup and "
        "energy savings follow the superpage supply, and remain "
        "positive\neven when memhog holds most of memory — the OS "
        "compacts and re-promotes in the background.\n");
    return 0;
}
