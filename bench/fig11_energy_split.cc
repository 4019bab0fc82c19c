/**
 * @file
 * Fig 11: per-workload split of SEESAW's L1 energy savings into
 * CPU-side lookups vs coherence lookups (64KB L1, OoO, 1.33GHz,
 * MOESI directory).
 *
 * Expected shape: every workload has a non-zero coherence share
 * (system activity exercises coherence even when single-threaded;
 * astar/mcf >10%), and multi-threaded workloads (canneal, tunkrank)
 * derive roughly a third of their savings from coherence.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Fig 11", "% of L1 energy savings attributable to "
                          "CPU-side vs coherence lookups (64KB, OoO, "
                          "1.33GHz)");

    harness::CampaignSpec spec("fig11_energy_split");
    spec.workloads(paperWorkloads());
    addDesignPair(spec, kCacheOrgs[1].label, makeConfig(kCacheOrgs[1], 1.33));
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"workload", "threads", "CPU-side", "coherence"});
    for (const auto &w : paperWorkloads()) {
        const auto cmp =
            findDesignPair(outcome, w.name + "/" + kCacheOrgs[1].label);
        const double cpu_saved = cmp.baseline.l1CpuDynamicNj -
                                 cmp.seesaw.l1CpuDynamicNj;
        const double coh_saved =
            cmp.baseline.l1CoherenceDynamicNj -
            cmp.seesaw.l1CoherenceDynamicNj;
        const double total = cpu_saved + coh_saved;
        table.addRow({w.name, std::to_string(w.threads),
                      TableReporter::pct(100.0 * cpu_saved / total, 1),
                      TableReporter::pct(100.0 * coh_saved / total,
                                         1)});
    }
    table.print();

    std::printf("\nShape check (paper): coherence share >10%% even for "
                "single-threaded workloads (system activity), and "
                "~1/3 for canneal/tunkrank.\nSnoopy-fabric comparison: "
                "see ablation_snoopy_coherence.\n");
    return 0;
}
