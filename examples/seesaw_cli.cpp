/**
 * @file
 * Command-line driver for the simulator: pick a workload (or a trace
 * file), a cache design and a system configuration, run it, and print
 * a full report. The scripting-friendly way to explore the design
 * space without writing C++.
 *
 *   $ ./build/examples/seesaw_cli --workload redis --design seesaw \
 *         --l1 64K --assoc 16 --freq 1.33 --memhog 0.3
 *   $ ./build/examples/seesaw_cli --list
 *   $ ./build/examples/seesaw_cli --help
 */

#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "bench_common.hh"
#include "common/bitops.hh"

namespace {

using namespace seesaw;
using namespace seesaw::bench;

constexpr std::uint64_t kMaxUnsigned =
    std::numeric_limits<unsigned>::max();

void
usage()
{
    std::printf(
        "usage: seesaw_cli [options]\n"
        "  --workload NAME     one of the 16 paper workloads "
        "(default redis)\n"
        "  --trace PATH        replay a binary trace instead of the\n"
        "                      synthetic stream (workload still sets\n"
        "                      probe/THP parameters)\n"
        "  --design KIND       vipt | pipt | sipt | seesaw | wp |\n"
        "                      wpseesaw\n"
        "                      (default seesaw)\n"
        "  --l1 SIZE           32K | 64K | 128K (default 32K)\n"
        "  --assoc N           L1 ways (default matches --l1: 8/16/32)\n"
        "  --freq GHZ          1.33 | 2.80 | 4.00 (default 1.33)\n"
        "  --core KIND         ooo | inorder (default ooo)\n"
        "  --memhog FRAC       fragment FRAC (0-1) of memory first "
        "(default 0)\n"
        "  --fabric KIND       directory | snoopy | none\n"
        "                      (default directory)\n"
        "  --policy KIND       4way | 4way8way (default 4way)\n"
        "  --replacement KIND  lru | fifo | random | srrip "
        "(default lru)\n"
        "  --prefetch KIND     none | nextline | stride "
        "(default none)\n"
        "  --tft N[:A]         TFT entries and associativity, A "
        "dividing N\n"
        "                      (default 16:1)\n"
        "  --unified-tlb [N]   fully-associative unified L1 TLB\n"
        "  --icache            also model a SEESAW/VIPT L1I\n"
        "  --instructions N    instruction budget (default 1000000)\n"
        "  --seed N            RNG seed (default 1)\n"
        "  --audit MODE        invariant audits: off | end | periodic "
        "|\n"
        "                      paranoid (default end; results are\n"
        "                      the same in every mode)\n"
        "  --audit-period N    events between periodic audits\n"
        "                      (default 65536)\n"
        "  --baseline          also run baseline VIPT and report the\n"
        "                      improvement\n"
        "  --list              list workloads and exit\n");
}

void
report(const char *label, const RunResult &r)
{
    std::printf("\n[%s]\n", label);
    std::printf("  instructions      %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("  cycles            %llu (IPC %.3f)\n",
                static_cast<unsigned long long>(r.cycles), r.ipc);
    std::printf("  L1D               %llu accesses, %.2f%% hits, "
                "MPKI %.1f\n",
                static_cast<unsigned long long>(r.l1Accesses),
                100.0 * r.l1Hits / std::max<std::uint64_t>(1,
                                                           r.l1Accesses),
                r.l1Mpki);
    if (r.l1iAccesses) {
        std::printf("  L1I               %llu accesses, %.2f%% hits\n",
                    static_cast<unsigned long long>(r.l1iAccesses),
                    100.0 * (r.l1iAccesses - r.l1iMisses) /
                        r.l1iAccesses);
    }
    if (r.tftLookups) {
        std::printf("  TFT               %.2f%% hit rate; superpage "
                    "refs %.1f%% of accesses\n",
                    100.0 * r.tftHits / r.tftLookups,
                    100.0 * r.superpageRefFraction);
    }
    std::printf("  superpage cover   %.1f%% of footprint\n",
                100.0 * r.superpageCoverage);
    std::printf("  outer hierarchy   L2 %llu / LLC %llu / DRAM %llu "
                "accesses\n",
                static_cast<unsigned long long>(r.l2Accesses),
                static_cast<unsigned long long>(r.llcAccesses),
                static_cast<unsigned long long>(r.dramAccesses));
    std::printf("  coherence         %llu probes (%llu hits)\n",
                static_cast<unsigned long long>(r.probes),
                static_cast<unsigned long long>(r.probeHits));
    std::printf("  energy            %.1f uJ total  [L1 cpu %.1f, "
                "L1 coherence %.1f, leak %.1f, outer %.1f, "
                "translation %.1f]\n",
                r.energyTotalNj / 1000.0, r.l1CpuDynamicNj / 1000.0,
                r.l1CoherenceDynamicNj / 1000.0,
                r.l1LeakageNj / 1000.0, r.outerNj / 1000.0,
                r.translationNj / 1000.0);
    std::printf("  OS events         %llu promotions, %llu splinters, "
                "%llu faults\n",
                static_cast<unsigned long long>(r.promotions),
                static_cast<unsigned long long>(r.splinters),
                static_cast<unsigned long long>(r.pageFaults));
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name = "redis";
    SystemConfig cfg;
    cfg.instructions = 1'000'000;
    const CacheOrg *org = &kCacheOrgs[0];
    unsigned assoc = 0; // 0 = the organisation's associativity
    bool run_baseline = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            for (const auto &w : paperWorkloads()) {
                std::printf("%-8s %4lluMB footprint, %u thread%s\n",
                            w.name.c_str(),
                            static_cast<unsigned long long>(
                                w.footprintBytes >> 20),
                            w.threads, w.threads > 1 ? "s" : "");
            }
            return 0;
        } else if (arg == "--workload") {
            workload_name = takeValue(argc, argv, i);
        } else if (arg == "--trace") {
            cfg.tracePath = takeValue(argc, argv, i);
        } else if (arg == "--design") {
            cfg.l1Kind = parseName(kDesignNames, "design",
                                   takeValue(argc, argv, i));
        } else if (arg == "--l1") {
            org = &parseOrg("--l1", takeValue(argc, argv, i));
        } else if (arg == "--assoc") {
            assoc = static_cast<unsigned>(parseCount(
                "--assoc", takeValue(argc, argv, i), 1, kMaxUnsigned));
        } else if (arg == "--freq") {
            const std::string token = takeValue(argc, argv, i);
            cfg.freqGhz = parseReal("--freq", token);
            if (cfg.freqGhz <= 0.0)
                badValue("--freq", token);
        } else if (arg == "--core") {
            cfg.coreKind =
                parseName(kCoreNames, "core", takeValue(argc, argv, i));
        } else if (arg == "--memhog") {
            cfg.memhogFraction =
                parseReal("--memhog", takeValue(argc, argv, i), 0.0, 1.0);
        } else if (arg == "--fabric") {
            cfg.fabric = parseName(kFabricNames, "fabric",
                                   takeValue(argc, argv, i));
        } else if (arg == "--policy") {
            cfg.policy = parseName(kPolicyNames, "policy",
                                   takeValue(argc, argv, i));
        } else if (arg == "--replacement") {
            cfg.replacement.kind = parseName(
                kReplacementNames, "replacement", takeValue(argc, argv, i));
        } else if (arg == "--prefetch") {
            cfg.prefetch.kind = parseName(kPrefetchNames, "prefetcher",
                                          takeValue(argc, argv, i));
        } else if (arg == "--tft") {
            // N[:A]: A ways dividing N entries (N / A sets).
            const std::string spec = takeValue(argc, argv, i);
            const auto colon = spec.find(':');
            const auto entries = parseWholeCount(spec.substr(0, colon));
            const auto ways =
                colon == std::string::npos
                    ? std::optional<std::uint64_t>(1)
                    : parseWholeCount(spec.substr(colon + 1));
            if (!entries || !ways || *entries == 0 || *ways == 0 ||
                *entries > kMaxUnsigned || *entries % *ways != 0)
                badValue("--tft", spec);
            cfg.tftEntries = static_cast<unsigned>(*entries);
            cfg.tftAssoc = static_cast<unsigned>(*ways);
        } else if (arg == "--unified-tlb") {
            cfg.unifiedL1Tlb = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                cfg.unifiedL1TlbEntries = static_cast<unsigned>(
                    parseCount("--unified-tlb", takeValue(argc, argv, i), 1,
                               kMaxUnsigned));
        } else if (arg == "--icache") {
            cfg.modelInstructionCache = true;
        } else if (arg == "--instructions") {
            cfg.instructions =
                parseCount("--instructions", takeValue(argc, argv, i), 1);
        } else if (arg == "--seed") {
            cfg.seed = parseCount("--seed", takeValue(argc, argv, i));
        } else if (arg == "--audit") {
            cfg.audit.mode =
                check::parseAuditMode(takeValue(argc, argv, i));
        } else if (arg == "--audit-period") {
            cfg.audit.periodEvents =
                parseCount("--audit-period", takeValue(argc, argv, i), 1);
        } else if (arg == "--baseline") {
            run_baseline = true;
        } else {
            std::fprintf(stderr, "unknown option %s (try --help)\n",
                         arg.c_str());
            return 1;
        }
    }
    cfg.l1SizeBytes = org->sizeBytes;
    cfg.l1Assoc = assoc ? assoc : org->assoc;
    // An L1 has a power-of-two way count no larger than its line
    // count. SEESAW's partition bits start at bit 12, so its sets of
    // 64B lines must span exactly 4KB: ways = size / 4KB.
    if (!isPowerOfTwo(cfg.l1Assoc) || cfg.l1Assoc > cfg.l1SizeBytes / 64 ||
        (isSeesawKind(cfg.l1Kind) &&
         cfg.l1Assoc != cfg.l1SizeBytes / 4096))
        badValue("--assoc", std::to_string(cfg.l1Assoc));

    // The header prints only once the run has returned, so a run that
    // fails leaves stdout empty.
    const WorkloadSpec &workload = findWorkload(workload_name);
    const RunResult run = simulate(workload, cfg);
    std::printf("workload %s, L1 %lluKB %u-way @ %.2fGHz, %s core\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(cfg.l1SizeBytes >> 10),
                cfg.l1Assoc, cfg.freqGhz,
                cfg.coreKind == CoreKind::InOrder ? "in-order"
                                                  : "out-of-order");
    report("run", run);

    if (run_baseline) {
        SystemConfig base_cfg = cfg;
        base_cfg.l1Kind = L1Kind::ViptBaseline;
        const RunResult base = simulate(workload, base_cfg);
        report("baseline VIPT", base);
        std::printf("\nvs baseline: %.2f%% faster, %.2f%% less "
                    "memory-hierarchy energy\n",
                    runtimeImprovementPercent(base, run),
                    energySavedPercent(base, run));
    }
    return 0;
}
