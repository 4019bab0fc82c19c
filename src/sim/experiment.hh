/**
 * @file
 * Experiment conveniences shared by the benches and examples: run a
 * workload under a config, compare designs, and read environment knobs
 * (instruction budget, verbosity) so benchmark binaries stay fast by
 * default but can be cranked up for a full reproduction.
 */

#ifndef SEESAW_SIM_EXPERIMENT_HH
#define SEESAW_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/sim_engine.hh"

namespace seesaw {

/** Simulate @p workload on @p config (constructs a fresh SimEngine). */
RunResult simulate(const WorkloadSpec &workload,
                   const SystemConfig &config);

/** Percent improvement of @p variant over @p baseline runtime. */
double runtimeImprovementPercent(const RunResult &baseline,
                                 const RunResult &variant);

/** Percent of memory-hierarchy energy saved by @p variant. */
double energySavedPercent(const RunResult &baseline,
                          const RunResult &variant);

/** Simple (avg, min, max) summary of a series. */
struct Summary
{
    double avg = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Summarise a non-empty series. */
Summary summarize(const std::vector<double> &values);

/**
 * Instruction budget for experiments: SEESAW_INSTRUCTIONS overrides
 * the per-bench default (benches default to quick runs; the paper's
 * 10B-instruction traces are approximated by longer budgets). A value
 * that is not a whole number >= 1 exits 1 (common/parse.hh envCount).
 */
std::uint64_t experimentInstructions(std::uint64_t fallback);

/** SEESAW_MEM_BYTES override for simulated physical memory, parsed
 *  like experimentInstructions(). */
std::uint64_t experimentMemBytes(std::uint64_t fallback);

/** Baseline-vs-SEESAW pair on otherwise identical configs. */
struct DesignComparison
{
    RunResult baseline;
    RunResult seesaw;
    double runtimeImprovementPct = 0.0;
    double energySavedPct = 0.0;
};

/**
 * Run @p workload under @p base_config twice: once with the baseline
 * VIPT L1 and once with SEESAW, holding everything else fixed.
 */
DesignComparison compareBaselineVsSeesaw(const WorkloadSpec &workload,
                                         SystemConfig base_config);

} // namespace seesaw

#endif // SEESAW_SIM_EXPERIMENT_HH
