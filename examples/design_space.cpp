/**
 * @file
 * Design-space exploration with the modelling API.
 *
 * A cache architect wants to grow the L1 beyond 32KB but VIPT forces
 * associativity up with size. This example uses the SramModel /
 * LatencyTable directly to chart the latency/energy wall, then runs
 * the simulator to compare candidate organisations — including SEESAW
 * partition widths (the §IV-A4 "4 ways per partition" choice) — on a
 * real workload. The candidate organisations share one front end, so
 * they run as one trace pass through MultiConfigEngine:
 *
 *   $ ./build/examples/design_space
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "sim/experiment.hh"
#include "sim/multi_config_engine.hh"
#include "sim/report.hh"

int
main(int argc, char **argv)
{
    using namespace seesaw;

    if (argc > 1) {
        std::fprintf(stderr, "usage: design_space\n");
        return std::strcmp(argv[1], "--help") == 0 ? 0 : 1;
    }

    printBanner("design_space", "Choosing an L1 organisation");

    // --- Step 1: the analytical wall. Why can't we just scale VIPT?
    LatencyTable latency;
    const SramModel &sram = latency.sram();
    std::printf("VIPT scaling wall (1.33GHz):\n");
    TableReporter wall({"cache", "assoc", "latency(ns)", "cycles",
                        "energy(nJ)"});
    for (auto [size, assoc] :
         {std::pair{32 * 1024, 8u}, std::pair{64 * 1024, 16u},
          std::pair{128 * 1024, 32u}, std::pair{256 * 1024, 64u}}) {
        wall.addRow({std::to_string(size / 1024) + "KB",
                     std::to_string(assoc),
                     TableReporter::fmt(
                         sram.accessLatencyNs(size, assoc), 2),
                     std::to_string(
                         latency.basePageCycles(size, assoc, 1.33)),
                     TableReporter::fmt(
                         sram.accessEnergyNj(size, assoc), 4)});
    }
    wall.print();

    // --- Step 2: candidate SEESAW partition widths for a 64KB L1.
    std::printf("\nSEESAW partition-width sweep (64KB 16-way, "
                "1.33GHz, redis):\n");
    WorkloadSpec w = findWorkload("redis");
    w.footprintBytes = 64ULL << 20;

    SystemConfig base_cfg;
    base_cfg.l1SizeBytes = 64 * 1024;
    base_cfg.l1Assoc = 16;
    base_cfg.freqGhz = 1.33;
    base_cfg.instructions = 400'000;
    base_cfg.l1Kind = L1Kind::ViptBaseline;

    // Candidates: the VIPT baseline plus three partition widths. All
    // four share the workload, seed and OS policy — exactly one front
    // end — so they run as a single trace pass.
    const unsigned widths[] = {2, 4, 8};
    std::vector<SystemConfig> configs{base_cfg};
    for (const unsigned ways : widths) {
        SystemConfig cfg = base_cfg;
        cfg.l1Kind = L1Kind::Seesaw;
        cfg.partitionWays = ways;
        configs.push_back(cfg);
    }

    const std::vector<RunResult> results =
        MultiConfigEngine(configs, w).run();
    const RunResult &base = results[0];

    TableReporter sweep({"partition", "fast-hit cycles", "speedup",
                         "energy saved", "hit rate"});
    for (std::size_t i = 0; i < std::size(widths); ++i) {
        const unsigned ways = widths[i];
        const RunResult &r = results[i + 1];
        sweep.addRow(
            {std::to_string(ways) + "-way",
             std::to_string(latency.superpageCycles(64 * 1024, 16,
                                                    ways, 1.33)),
             TableReporter::pct(runtimeImprovementPercent(base, r), 1),
             TableReporter::pct(energySavedPercent(base, r), 1),
             TableReporter::pct(100.0 * r.l1Hits /
                                    static_cast<double>(r.l1Accesses),
                                1)});
    }
    sweep.print();

    std::printf("\nNarrower partitions read fewer ways (less energy per "
                "superpage hit) but\nsacrifice associativity for the "
                "partition-local insertion policy; the paper's\n4-way "
                "partition is the balance point, matching §IV-A4.\n");
    return 0;
}
