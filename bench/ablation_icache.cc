/**
 * @file
 * Extension study (§V): applying SEESAW to the L1 instruction cache.
 * The paper applies SEESAW to the data cache and notes the I-side
 * "may be valuable with the advent of cloud workloads that use
 * considerably larger instruction-side footprints". This bench
 * quantifies the *additional* benefit the I-side application brings,
 * for small-text SPEC workloads vs large-text cloud workloads.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Extension: L1I application",
                "D-side only vs D+I SEESAW (32KB L1I, OoO, 1.33GHz)");

    TableReporter table({"workload", "text", "L1I hitrate",
                         "perf D-only", "perf D+I", "energy D-only",
                         "energy D+I"});

    const char *names[] = {"astar", "omnet", "redis", "tunk",
                           "nutch", "olio", "mongo"};
    harness::CampaignSpec spec("ablation_icache");
    for (const char *name : names)
        spec.workload(findWorkload(name));

    // All runs model the I-cache so fetch traffic is identical; only
    // the cache designs under test change.
    SystemConfig cfg = makeConfig(kCacheOrgs[1], 1.33, 200'000);
    cfg.modelInstructionCache = true;

    // A: VIPT D + VIPT I (the baseline).
    spec.variant("vipt", withDesign(cfg, L1Kind::ViptBaseline));

    // B: SEESAW D + VIPT I (the paper's evaluated design).
    cfg.l1Kind = L1Kind::Seesaw;
    cfg.icacheKind = SystemConfig::ICacheKind::Vipt;
    spec.variant("seesaw-d", cfg);

    // C: SEESAW D + SEESAW I (the §V extension).
    cfg.icacheKind = SystemConfig::ICacheKind::Seesaw;
    spec.variant("seesaw-di", cfg);
    const auto outcome = runBenchCampaign(spec);

    for (const char *name : names) {
        const WorkloadSpec &w = findWorkload(name);
        const auto result = [&](const char *variant) -> const RunResult & {
            return harness::findResult(outcome.results,
                                       std::string(name) + "/" + variant);
        };
        const RunResult &base = result("vipt");
        const RunResult &d_see = result("seesaw-d");
        const RunResult &both = result("seesaw-di");

        const double l1i_hit =
            both.l1iAccesses
                ? 100.0 * (both.l1iAccesses - both.l1iMisses) /
                      both.l1iAccesses
                : 0.0;
        table.addRow(
            {name,
             std::to_string(w.codeFootprintBytes >> 20) + "MB",
             TableReporter::pct(l1i_hit, 1),
             TableReporter::pct(
                 runtimeImprovementPercent(base, d_see), 2),
             TableReporter::pct(runtimeImprovementPercent(base, both),
                                2),
             TableReporter::pct(energySavedPercent(base, d_see), 2),
             TableReporter::pct(energySavedPercent(base, both), 2)});
    }
    table.print();

    std::printf("\nShape check (paper §V): the I-side application adds "
                "energy savings on top of the D-side ones, and the "
                "large-text cloud workloads (16-32MB) gain the most — "
                "the case the paper flags.\n");
    return 0;
}
