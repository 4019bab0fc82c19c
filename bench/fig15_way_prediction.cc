/**
 * @file
 * Fig 15: way prediction (WP), SEESAW, and WP+SEESAW combined —
 * percent performance and energy improvement over the baseline 64KB
 * VIPT cache at 1.33GHz, for the 8 cloud workloads.
 *
 * Expected shape: WP alone saves energy but *degrades* performance on
 * poor-locality workloads (graph500, olio); SEESAW never degrades
 * performance; WP+SEESAW saves the most energy.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Fig 15", "Way prediction vs SEESAW vs WP+SEESAW "
                          "(64KB, OoO, 1.33GHz)");

    struct Design
    {
        const char *label;
        L1Kind kind;
    };
    const Design designs[] = {
        {"WP", L1Kind::ViptWayPredicted},
        {"SEESAW", L1Kind::Seesaw},
        {"WP+SEESAW", L1Kind::SeesawWayPredicted},
    };
    harness::CampaignSpec spec("fig15_way_prediction");
    spec.workloads(cloudWorkloads());
    const SystemConfig cfg = makeConfig(kCacheOrgs[1], 1.33);
    spec.variant("vipt", withDesign(cfg, L1Kind::ViptBaseline));
    for (const auto &d : designs)
        spec.variant(nameOf(kDesignNames, d.kind), withDesign(cfg, d.kind));
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"workload", "design", "perf", "energy",
                         "WP accuracy"});
    int wp_degrades = 0, seesaw_degrades = 0, combined_best_energy = 0;
    for (const auto &w : cloudWorkloads()) {
        const RunResult &base =
            harness::findResult(outcome.results, w.name + "/vipt");
        double energies[3], perfs[3];
        int i = 0;
        for (const auto &d : designs) {
            const RunResult &r = harness::findResult(
                outcome.results,
                w.name + "/" + nameOf(kDesignNames, d.kind));
            perfs[i] = runtimeImprovementPercent(base, r);
            energies[i] = energySavedPercent(base, r);
            table.addRow({w.name, d.label,
                          TableReporter::pct(perfs[i], 1),
                          TableReporter::pct(energies[i], 1),
                          r.wpAccuracy > 0.0
                              ? TableReporter::pct(
                                    100.0 * r.wpAccuracy, 0)
                              : std::string("-")});
            ++i;
        }
        wp_degrades += perfs[0] < 0.0 ? 1 : 0;
        seesaw_degrades += perfs[1] < -0.25 ? 1 : 0;
        combined_best_energy +=
            (energies[2] >= energies[0] && energies[2] >= energies[1])
                ? 1
                : 0;
    }
    table.print();

    std::printf("\nShape check (paper): WP alone degrades performance "
                "for poor-locality workloads (%d/8 here); SEESAW never "
                "does (%d/8 degraded); WP+SEESAW yields the best energy "
                "savings (%d/8 workloads).\n",
                wp_degrades, seesaw_degrades, combined_best_energy);
    return 0;
}
