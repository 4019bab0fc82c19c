/**
 * @file
 * Ablation (§IV-C3): the cost of a TFT without ASID tags.
 *
 * The paper found ASID-tagging the TFT nearly doubles its area while
 * flushing it on every context switch costs <1% performance. This
 * bench sweeps the context-switch interval (including "never", the
 * ASID-tagged ideal) and reports SEESAW's benefit at each point.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Ablation: TFT flush on context switch",
                "flush interval sweep (64KB, OoO, 1.33GHz)");

    struct Point
    {
        std::uint64_t interval;
        const char *label;
    };
    const Point points[] = {
        {0, "never (ASID-tagged ideal)"},
        {1'000'000, "1M instr"},
        {100'000, "100K instr"},
        {20'000, "20K instr (pathological)"},
    };

    const auto point_label = [](const Point &p) {
        return "cs" + std::to_string(p.interval);
    };
    harness::CampaignSpec spec("ablation_tft_flush");
    spec.workloads(cloudWorkloads());
    for (const auto &p : points) {
        SystemConfig cfg = makeConfig(kCacheOrgs[1], 1.33, 200'000);
        cfg.contextSwitchInterval = p.interval;
        addDesignPair(spec, point_label(p), cfg);
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"flush interval", "perf vs baseline",
                         "TFT miss rate", "loss vs ideal"});
    double ideal = 0.0;
    for (const auto &p : points) {
        double perf = 0.0, tft_miss = 0.0;
        for (const auto &w : cloudWorkloads()) {
            const auto cmp =
                findDesignPair(outcome, w.name + "/" + point_label(p));
            perf += cmp.runtimeImprovementPct;
            if (cmp.seesaw.superpageRefs > 0) {
                tft_miss += 100.0 * cmp.seesaw.superpageRefsTftMiss /
                            cmp.seesaw.superpageRefs;
            }
        }
        const auto n = cloudWorkloads().size();
        perf /= n;
        tft_miss /= n;
        if (p.interval == 0)
            ideal = perf;
        table.addRow({p.label, TableReporter::pct(perf, 2),
                      TableReporter::pct(tft_miss, 2),
                      TableReporter::fmt(ideal - perf, 3)});
    }
    table.print();

    std::printf("\nShape check (paper): at realistic context-switch "
                "rates the non-ASID TFT loses <1%% of total performance "
                "vs the ASID-tagged ideal — not worth doubling the "
                "86-byte structure.\n");
    return 0;
}
