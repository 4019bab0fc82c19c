/**
 * @file
 * Multi-core scaling study on the unified SimEngine.
 *
 * Runs a shared-heap multi-threaded workload across a list of core
 * counts with exact coherence and shows how SEESAW's two benefit
 * sources scale in opposite directions: the CPU-side fast-path saving
 * is per-access (flat with cores), while the coherence saving grows
 * with the probe traffic that sharing generates.
 *
 *   $ ./build/examples/scaling_study
 *   $ ./build/examples/scaling_study --cores 1,2,4,8,16
 *   $ ./build/examples/scaling_study --cores 4 --l1 wpseesaw \
 *         --fabric snoopy
 *
 * --l1 picks the design compared against the VIPT baseline; --fabric
 * picks the coherence fabric (directory, snoopy, none); --cores takes
 * 1-64, and a malformed value exits 1 with "bad --cores value <token>".
 *
 * Every point is one cell of a campaign run on SEESAW_JOBS workers
 * (hardware_concurrency when unset), archived to
 * results/scaling_study.json|csv (SEESAW_RESULTS_DIR moves them).
 * Each 16-core cell holds its own 16 core complexes, so peak RSS
 * grows with the worker count.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace seesaw;
    using namespace seesaw::bench;

    std::vector<unsigned> core_counts = {1, 2, 4, 8, 16};
    L1Kind design = L1Kind::Seesaw;
    CoherenceKind fabric = CoherenceKind::Directory;
    std::string design_name = "seesaw";
    std::string fabric_name = "directory";
    std::string workload_name = "tunk";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cores") {
            // 1-64 cores: the engine models at most 64.
            core_counts.clear();
            for (const auto &tok : splitList(takeValue(argc, argv, i)))
                core_counts.push_back(static_cast<unsigned>(
                    parseCount("--cores", tok, 1, 64)));
            if (core_counts.empty())
                badValue("--cores", argv[i]);
        } else if (arg == "--l1") {
            design_name = takeValue(argc, argv, i);
            design = parseName(kDesignNames, "design", design_name);
        } else if (arg == "--fabric") {
            fabric_name = takeValue(argc, argv, i);
            fabric = parseName(kFabricNames, "fabric", fabric_name);
        } else if (arg == "--workload") {
            workload_name = takeValue(argc, argv, i);
        } else {
            std::fprintf(
                stderr,
                "usage: scaling_study [--cores N,N,... (1-64)] "
                "[--l1 vipt|pipt|seesaw|wp|wpseesaw|sipt] "
                "[--fabric directory|snoopy|none] "
                "[--workload NAME]\n");
            return arg == "--help" || arg == "-h" ? 0 : 1;
        }
    }

    printBanner("scaling_study",
                std::string("SEESAW benefit sources vs core count (") +
                    workload_name + ", 64KB L1s, " + fabric_name +
                    " fabric, design " + design_name + ")");

    const WorkloadSpec &w = findWorkload(workload_name);

    // One VIPT-baseline cell and one design cell per core count (a
    // single cell when the design is the baseline itself).
    const auto cellName = [&](unsigned cores, L1Kind kind) {
        return workload_name + "/c" + std::to_string(cores) + "/" +
               nameOf(kDesignNames, kind);
    };
    harness::CampaignSpec spec("scaling_study");
    for (auto it = core_counts.begin(); it != core_counts.end(); ++it) {
        if (std::find(core_counts.begin(), it, *it) != it)
            continue; // a repeated count reuses its cells
        SystemConfig cfg;
        cfg.cores = *it;
        cfg.fabric = fabric;
        cfg.l1SizeBytes = 64 * 1024;
        cfg.l1Assoc = 16;
        cfg.instructions = 80'000;
        cfg.warmupInstructions = 40'000;
        cfg.seed = 3;
        spec.cell(cellName(*it, L1Kind::ViptBaseline), w,
                  withDesign(cfg, L1Kind::ViptBaseline));
        if (design != L1Kind::ViptBaseline)
            spec.cell(cellName(*it, design), w, withDesign(cfg, design));
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"cores", "agg IPC", "probes/kinstr",
                         "probe hitrate", "CPU-side saved(uJ)",
                         "coherence saved(uJ)", "coherence share"});

    for (unsigned cores : core_counts) {
        const RunResult &base = harness::findResult(
            outcome.results, cellName(cores, L1Kind::ViptBaseline));
        const RunResult &see =
            harness::findResult(outcome.results, cellName(cores, design));
        const double cpu_saved =
            (base.l1CpuDynamicNj - see.l1CpuDynamicNj) / 1000.0;
        const double coh_saved = (base.l1CoherenceDynamicNj -
                                  see.l1CoherenceDynamicNj) /
                                 1000.0;
        const double kinstr = see.instructions / 1000.0;
        const double saved_total = coh_saved + cpu_saved;
        table.addRow(
            {std::to_string(cores), TableReporter::fmt(see.ipc, 2),
             TableReporter::fmt(see.probes / kinstr, 1),
             see.probes ? TableReporter::pct(
                              100.0 * see.probeHits / see.probes, 1)
                        : std::string("-"),
             TableReporter::fmt(cpu_saved, 1),
             TableReporter::fmt(coh_saved, 1),
             saved_total != 0.0
                 ? TableReporter::pct(
                       100.0 * coh_saved / saved_total, 1)
                 : std::string("-")});
    }
    table.print();

    std::printf(
        "\nReading the table: per-instruction CPU-side savings are "
        "flat in core count; probe\ntraffic — and with it the "
        "coherence-side savings SEESAW's 4-way probes unlock —\ngrows "
        "superlinearly as more threads share the hot set. This is the "
        "dynamic behind\nFig 11 and the paper's observation that "
        "coherence savings matter even for\nsingle-threaded workloads "
        "once system activity is included.\n");
    return 0;
}
