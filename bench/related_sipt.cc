/**
 * @file
 * Related-work comparison (§VII): SEESAW vs SIPT (speculatively
 * indexed, physically tagged — Zheng et al., HPCA'18), the design the
 * paper calls "closest in spirit". SIPT breaks the VIPT ceiling with
 * more sets and speculation+rollback; SEESAW with way filtering and a
 * guarantee (the TFT never mispredicts). This bench compares both
 * against the VIPT baseline and shows where each benefit comes from.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Related work: SIPT",
                "SEESAW vs speculative indexing (OoO, 1.33GHz)");

    const CacheOrg orgs[] = {kCacheOrgs[0], kCacheOrgs[2]};
    const char *names[] = {"redis", "mcf", "omnet"};
    harness::CampaignSpec spec("related_sipt");
    for (const char *name : names)
        spec.workload(findWorkload(name));
    for (const auto &org : orgs) {
        const SystemConfig cfg = makeConfig(org, 1.33, 150'000);
        addDesignPair(spec, org.label, cfg);
        // One speculative index bit: half the baseline's ways, twice
        // its sets — the gentlest SIPT configuration.
        SystemConfig sipt_cfg = withDesign(cfg, L1Kind::Sipt);
        sipt_cfg.siptAssoc = org.assoc / 2;
        spec.variant(std::string(org.label) + "/sipt", sipt_cfg);
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"cache", "workload", "design", "perf",
                         "energy", "notes"});
    for (const auto &org : orgs) {
        for (const char *name : names) {
            const std::string cell =
                std::string(name) + "/" + org.label;
            const auto cmp = findDesignPair(outcome, cell);
            table.addRow({org.label, name, "SEESAW",
                          TableReporter::pct(cmp.runtimeImprovementPct, 2),
                          TableReporter::pct(cmp.energySavedPct, 2),
                          "guaranteed fast path"});

            const RunResult &base = cmp.baseline;
            const RunResult &sipt =
                harness::findResult(outcome.results, cell + "/sipt");
            table.addRow(
                {org.label, name,
                 "SIPT " + std::to_string(org.assoc / 2) + "-way",
                 TableReporter::pct(
                     runtimeImprovementPercent(base, sipt), 2),
                 TableReporter::pct(energySavedPercent(base, sipt), 2),
                 "speculation + rollback"});
        }
    }
    table.print();

    std::printf(
        "\nReading the table: both designs escape the VIPT ceiling. "
        "SIPT can be strong when\nits per-page bit predictor is warm "
        "(pages keep their frames), but every cold or\nmigrated page "
        "pays a rollback squash, its fast path rests on speculation "
        "rather\nthan a guarantee, and hit rates drop at the low "
        "associativity that speculative\nindexing requires — the "
        "complexity/robustness contrast §VII draws.\n");
    return 0;
}
