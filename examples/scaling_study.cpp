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
 * picks the coherence fabric (directory, snoopy, none).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "enum_names.hh"
#include "sim/report.hh"
#include "sim/sim_engine.hh"

namespace {

using namespace seesaw;

std::vector<unsigned>
parseCores(const std::string &list)
{
    std::vector<unsigned> cores;
    std::size_t pos = 0;
    while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok =
            list.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        cores.push_back(
            static_cast<unsigned>(std::stoul(tok)));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return cores;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace seesaw;

    std::vector<unsigned> core_counts = {1, 2, 4, 8, 16};
    L1Kind design = L1Kind::Seesaw;
    CoherenceKind fabric = CoherenceKind::Directory;
    std::string design_name = "seesaw";
    std::string fabric_name = "directory";
    std::string workload_name = "tunk";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--cores") {
            core_counts = parseCores(value());
        } else if (arg == "--l1") {
            design_name = value();
            design = bench::parseName(bench::kDesignNames, "design",
                                      design_name);
        } else if (arg == "--fabric") {
            fabric_name = value();
            fabric = bench::parseName(bench::kFabricNames, "fabric",
                                      fabric_name);
        } else if (arg == "--workload") {
            workload_name = value();
        } else {
            std::fprintf(
                stderr,
                "usage: scaling_study [--cores N,N,...] "
                "[--l1 vipt|pipt|seesaw|wp|wpseesaw|sipt] "
                "[--fabric directory|snoopy|none] "
                "[--workload NAME]\n");
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }

    printBanner("scaling_study",
                std::string("SEESAW benefit sources vs core count (") +
                    workload_name + ", 64KB L1s, " + fabric_name +
                    " fabric, design " + design_name + ")");

    const WorkloadSpec &w = findWorkload(workload_name);

    TableReporter table({"cores", "agg IPC", "probes/kinstr",
                         "probe hitrate", "CPU-side saved(uJ)",
                         "coherence saved(uJ)", "coherence share"});

    for (unsigned cores : core_counts) {
        SystemConfig cfg;
        cfg.cores = cores;
        cfg.fabric = fabric;
        cfg.l1SizeBytes = 64 * 1024;
        cfg.l1Assoc = 16;
        cfg.instructions = 80'000;
        cfg.warmupInstructions = 40'000;
        cfg.seed = 3;

        cfg.l1Kind = L1Kind::ViptBaseline;
        const RunResult base = SimEngine(cfg, w).run();
        cfg.l1Kind = design;
        const RunResult see = SimEngine(cfg, w).run();

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
