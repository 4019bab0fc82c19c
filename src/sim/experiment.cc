#include "sim/experiment.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parse.hh"

namespace seesaw {

RunResult
simulate(const WorkloadSpec &workload, const SystemConfig &config)
{
    SimEngine system(config, workload);
    return system.run();
}

double
runtimeImprovementPercent(const RunResult &baseline,
                          const RunResult &variant)
{
    if (baseline.cycles == 0)
        return 0.0;
    return 100.0 *
           (static_cast<double>(baseline.cycles) -
            static_cast<double>(variant.cycles)) /
           static_cast<double>(baseline.cycles);
}

double
energySavedPercent(const RunResult &baseline, const RunResult &variant)
{
    if (baseline.energyTotalNj <= 0.0)
        return 0.0;
    return 100.0 * (baseline.energyTotalNj - variant.energyTotalNj) /
           baseline.energyTotalNj;
}

Summary
summarize(const std::vector<double> &values)
{
    SEESAW_ASSERT(!values.empty(), "summarize needs data");
    Summary s;
    s.min = s.max = values.front();
    double sum = 0.0;
    for (double v : values) {
        sum += v;
        s.min = std::min(s.min, v);
        s.max = std::max(s.max, v);
    }
    s.avg = sum / static_cast<double>(values.size());
    return s;
}

std::uint64_t
experimentInstructions(std::uint64_t fallback)
{
    return envCount("SEESAW_INSTRUCTIONS", fallback);
}

std::uint64_t
experimentMemBytes(std::uint64_t fallback)
{
    return envCount("SEESAW_MEM_BYTES", fallback);
}

DesignComparison
compareBaselineVsSeesaw(const WorkloadSpec &workload,
                        SystemConfig base_config)
{
    DesignComparison cmp;
    base_config.l1Kind = L1Kind::ViptBaseline;
    cmp.baseline = simulate(workload, base_config);
    base_config.l1Kind = L1Kind::Seesaw;
    cmp.seesaw = simulate(workload, base_config);
    cmp.runtimeImprovementPct =
        runtimeImprovementPercent(cmp.baseline, cmp.seesaw);
    cmp.energySavedPct = energySavedPercent(cmp.baseline, cmp.seesaw);
    return cmp;
}

} // namespace seesaw
