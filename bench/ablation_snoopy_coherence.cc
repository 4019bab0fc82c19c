/**
 * @file
 * Ablation (§VI-B): directory vs snoopy coherence fabrics.
 *
 * The paper's Fig 11 numbers use a MOESI directory, which filters out
 * most spurious L1 probes. On a snoopy bus every remote transaction
 * probes the L1, so SEESAW's cheap 4-way probes save an additional
 * 2-5% of memory-hierarchy energy for multi-threaded workloads.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Ablation: coherence fabric",
                "directory vs snoopy energy savings (64KB, OoO)");

    const CoherenceKind fabrics[] = {CoherenceKind::Directory,
                                     CoherenceKind::Snoopy};
    harness::CampaignSpec spec("ablation_snoopy_coherence");
    spec.workloads(cloudWorkloads());
    for (CoherenceKind fabric : fabrics) {
        SystemConfig cfg = makeConfig(kCacheOrgs[1], 1.33);
        cfg.fabric = fabric;
        addDesignPair(spec, nameOf(kFabricNames, fabric), cfg);
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"workload", "threads", "directory", "snoopy",
                         "extra from snoopy"});
    for (const auto &w : cloudWorkloads()) {
        double saved[2];
        int i = 0;
        for (CoherenceKind fabric : fabrics) {
            saved[i++] = findDesignPair(outcome,
                                        w.name + "/" +
                                            nameOf(kFabricNames, fabric))
                             .energySavedPct;
        }
        table.addRow({w.name, std::to_string(w.threads),
                      TableReporter::pct(saved[0], 1),
                      TableReporter::pct(saved[1], 1),
                      TableReporter::fmt(saved[1] - saved[0], 2)});
    }
    table.print();

    std::printf("\nShape check (paper): snoopy fabrics add ~2-5 extra "
                "points of energy savings for multi-threaded "
                "workloads.\n");
    return 0;
}
