/**
 * @file
 * Ablation (§IV-B3): the out-of-order scheduler's superpage-TLB
 * occupancy counter. With the policy on, the scheduler assumes the
 * fast hit time only while the 2MB L1 TLB is at least a quarter full;
 * with it off, it always assumes fast and pays squash-and-replay for
 * every slow hit when superpages are scarce.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace seesaw;
    using namespace seesaw::bench;

    printBanner("Ablation: scheduler counter policy",
                "always-assume-fast vs occupancy-gated (64KB, OoO)");

    const double memhogs[] = {0.0, 0.9};
    const auto memhog_label = [](double memhog) {
        return "mh" + std::to_string(static_cast<int>(memhog * 100));
    };
    const auto policy_label = [](bool gated) {
        return gated ? "gated" : "always-fast";
    };

    // The counter policy steers only SEESAW's scheduler, so each
    // (memhog, workload) point runs one VIPT baseline.
    harness::CampaignSpec spec("ablation_scheduler_policy");
    for (double memhog : memhogs) {
        for (const auto &w : cloudWorkloads()) {
            WorkloadSpec workload = w;
            workload.thpEligibleFraction *= memhog > 0.0 ? 0.7 : 1.0;
            SystemConfig cfg = makeConfig(kCacheOrgs[1], 1.33, 150'000);
            cfg.memhogFraction = memhog;
            const std::string point = w.name + "/" + memhog_label(memhog);
            spec.cell(point + "/vipt", workload,
                      withDesign(cfg, L1Kind::ViptBaseline));
            for (bool policy : {true, false}) {
                cfg.schedulerCounterPolicy = policy;
                spec.cell(point + "/" + policy_label(policy), workload,
                          cfg);
            }
        }
    }
    const auto outcome = runBenchCampaign(spec);

    TableReporter table({"memhog", "policy", "squashes/kinstr",
                         "cycles", "perf vs baseline"});
    for (double memhog : memhogs) {
        for (bool policy : {true, false}) {
            double squash_rate = 0.0, perf = 0.0, cycles = 0.0;
            for (const auto &w : cloudWorkloads()) {
                const std::string point =
                    w.name + "/" + memhog_label(memhog);
                const RunResult &r = harness::findResult(
                    outcome.results, point + "/" + policy_label(policy));
                const RunResult &base = harness::findResult(
                    outcome.results, point + "/vipt");
                squash_rate += 1000.0 * r.squashes / r.instructions;
                perf += runtimeImprovementPercent(base, r);
                cycles += static_cast<double>(r.cycles);
            }
            const auto n = cloudWorkloads().size();
            table.addRow(
                {memhog_label(memhog), policy_label(policy),
                 TableReporter::fmt(squash_rate / n, 2),
                 TableReporter::fmt(cycles / n, 0),
                 TableReporter::pct(perf / n, 2)});
        }
    }
    table.print();

    std::printf("\nShape check: with ample superpages the two policies "
                "tie; under heavy fragmentation the gated policy avoids "
                "chronic squashing and runs faster.\n");
    return 0;
}
