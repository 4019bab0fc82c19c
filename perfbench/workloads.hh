/**
 * @file
 * The benchmark's three workloads, and the pinned golden cells each
 * one spot-checks before timing. Inputs derive only from the seed (and
 * a budget scale the smoke test shrinks); see README.md for why each
 * workload exists.
 */

#ifndef SEESAW_PERFBENCH_WORKLOADS_HH
#define SEESAW_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "workload/workload_spec.hh"

namespace perfbench {

/** One simulate(workload, config) cell. */
struct Cell
{
    std::string name;
    seesaw::WorkloadSpec workload;
    seesaw::SystemConfig config;
};

struct Workload
{
    std::string name;
    /** Every cell, as a per-config SimEngine run would execute it. */
    std::vector<Cell> cells;
    /** Non-empty when the workload runs one-pass: indices into cells,
     *  one list per shared front end (the grouping CampaignRunner's
     *  onePass plans for these cells). */
    std::vector<std::vector<std::size_t>> groups;
    /** Cells pinned in bench/golden/nightly_campaign.json, re-simulated
     *  before timing and compared stat for stat. */
    std::vector<Cell> golden;
};

/**
 * Build workload @p name for @p seed, with every instruction budget
 * multiplied by @p budget_scale (1 for measurement).
 * @return false when @p name is unknown.
 */
bool buildWorkload(const std::string &name, std::uint64_t seed,
                   double budget_scale, Workload &out);

} // namespace perfbench

#endif // SEESAW_PERFBENCH_WORKLOADS_HH
