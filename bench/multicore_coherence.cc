/**
 * @file
 * Multi-core validation of the Fig 11 coherence story with *exact*
 * directory coherence: N threads of a multi-threaded workload run one
 * per core over a shared heap; every probe corresponds to a real
 * remote copy. Reports, per core count and design, the probe load,
 * the per-probe energy gap (§IV-C1: 4-way vs full-set lookups) and
 * the share of SEESAW's L1 energy savings that coherence contributes.
 *
 * Runs as a parallel campaign of explicit cells — one simulation per
 * (workload, cores, design) — archiving every native RunResult to
 * results/multicore_coherence.{json,csv}.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Multi-core coherence",
                "exact-directory MOESI, threads sharing one heap "
                "(64KB L1s, OoO, 1.33GHz)");

    const char *names[] = {"tunk", "cann", "g500"};
    const unsigned core_counts[] = {2u, 4u, 8u, 16u};

    harness::CampaignSpec spec("multicore_coherence");
    for (const char *name : names) {
        const WorkloadSpec &w = findWorkload(name);
        for (unsigned cores : core_counts) {
            SystemConfig cfg;
            cfg.cores = cores;
            cfg.l1SizeBytes = 64 * 1024;
            cfg.l1Assoc = 16;
            cfg.instructions = experimentInstructions(60'000);
            cfg.warmupInstructions = 30'000;
            cfg.os.memBytes = experimentMemBytes(4ULL << 30);
            cfg.seed = 1;

            for (L1Kind kind :
                 {L1Kind::ViptBaseline, L1Kind::Seesaw}) {
                cfg.l1Kind = kind;
                const std::string cell_name =
                    std::string(name) + "/c" + std::to_string(cores) +
                    "/" + nameOf(kDesignNames, kind);
                spec.cell(cell_name, w, cfg);
            }
        }
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"workload", "cores", "probes/kinstr",
                         "c2c/kinstr", "coh energy share",
                         "coh savings share", "speedup"});

    for (const char *name : names) {
        for (unsigned cores : core_counts) {
            const auto cmp = findDesignPair(
                outcome, std::string(name) + "/c" + std::to_string(cores));
            const RunResult &vipt = cmp.baseline;
            const RunResult &see = cmp.seesaw;

            const double kinstr = see.instructions / 1000.0;
            const double coh_share =
                100.0 * see.l1CoherenceDynamicNj /
                (see.l1CoherenceDynamicNj + see.l1CpuDynamicNj);
            const double coh_saved = vipt.l1CoherenceDynamicNj -
                                     see.l1CoherenceDynamicNj;
            const double cpu_saved =
                vipt.l1CpuDynamicNj - see.l1CpuDynamicNj;
            const double savings_share =
                100.0 * coh_saved / (coh_saved + cpu_saved);
            const double speedup =
                100.0 *
                (static_cast<double>(vipt.cycles) - see.cycles) /
                vipt.cycles;

            table.addRow(
                {name, std::to_string(cores),
                 TableReporter::fmt(see.probes / kinstr, 1),
                 TableReporter::fmt(see.ownerSupplies / kinstr, 2),
                 TableReporter::pct(coh_share, 1),
                 TableReporter::pct(savings_share, 1),
                 TableReporter::pct(speedup, 1)});
        }
    }
    table.print();

    std::printf(
        "\nShape check (Fig 11 / §VI-B): coherence's share of the L1 "
        "energy savings grows\nwith core count and reaches roughly a "
        "third for the heavily-shared workloads\n(tunkrank, canneal); "
        "the per-probe saving is the fixed 4-way vs full-set gap.\n");
    return 0;
}
