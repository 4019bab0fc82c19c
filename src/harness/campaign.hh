/**
 * @file
 * Declarative experiment campaigns: a CampaignSpec describes a sweep
 * as the cross-product of workloads × named SystemConfig variants ×
 * seeds, expanded into uniquely-named Cells. Each cell owns everything
 * it needs to run (a fresh SimEngine is constructed inside the cell's
 * thunk), so cells are independent and safe to execute in parallel in
 * any order with bit-identical results.
 */

#ifndef SEESAW_HARNESS_CAMPAIGN_HH
#define SEESAW_HARNESS_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim_engine.hh"
#include "workload/workload_spec.hh"

namespace seesaw::harness {

/** One runnable unit of a campaign. */
struct Cell
{
    std::string name;     //!< unique within the campaign
    std::string workload; //!< workload name, known before running
    std::uint64_t seed = 0;
    std::uint64_t configHash = 0;

    /** Runs the cell; must be self-contained (no shared mutable
     *  state) so cells can execute concurrently. */
    std::function<RunResult()> run;

    /**
     * Present when the cell is a plain simulate(workload, config):
     * the inputs the one-pass grouping layer needs to batch compatible
     * cells into a single MultiConfigEngine trace pass
     * (RunnerOptions::onePass). Cells without it always execute their
     * own thunk. Results are bit-identical either way, so names,
     * hashes, sinks and store keys never see the difference.
     */
    struct OnePassInfo
    {
        WorkloadSpec workload;
        SystemConfig config;
    };
    std::shared_ptr<const OnePassInfo> onePass;
};

/** A cell's outcome plus scheduling metadata. */
struct CellResult
{
    std::string name;
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t configHash = 0;
    double wallSeconds = 0.0;
    RunResult result;
};

/**
 * Stable 64-bit FNV-1a hash over every SystemConfig role of
 * sim/config_fields.hh (all fields but the observe-only audit ones),
 * recorded with each result so archived campaigns can be matched to
 * the exact configuration that produced them.
 */
std::uint64_t configHash(const SystemConfig &config);

/**
 * Builder for a sweep. Axes (workloads, variants, seeds) expand as a
 * cross-product via cells(); custom cells (e.g. hand-built multi-core runs)
 * can be added explicitly and are appended after the cross-product in
 * insertion order.
 *
 *   CampaignSpec spec("fig07");
 *   spec.workloads(paperWorkloads())
 *       .variant("32KB/vipt", vipt32)
 *       .variant("32KB/seesaw", seesaw32)
 *       .seeds({1});
 *   for (Cell &cell : spec.cells()) ...
 *
 * Cross-product cells are named "<workload>/<variant>" (plus "/s<seed>"
 * when more than one seed is swept) and run simulate() on a copy of the
 * variant's config with the cell's seed applied.
 */
class CampaignSpec
{
  public:
    explicit CampaignSpec(std::string name);

    /** @name Sweep axes. */
    /// @{
    CampaignSpec &workload(const WorkloadSpec &w);
    CampaignSpec &workloads(const std::vector<WorkloadSpec> &ws);
    CampaignSpec &variant(std::string label, SystemConfig config);
    CampaignSpec &seeds(std::vector<std::uint64_t> seeds);
    /// @}

    /** Add an explicit cell with a custom runner thunk. */
    CampaignSpec &cell(std::string name, std::function<RunResult()> run,
                       std::uint64_t seed = 0,
                       std::uint64_t config_hash = 0,
                       std::string workload = {});

    /** Add an explicit simulate(@p workload, @p config) cell, eligible
     *  for one-pass grouping (@p config.seed doubles as the cell
     *  seed and the hash is computed here). */
    CampaignSpec &cell(std::string name, const WorkloadSpec &workload,
                       const SystemConfig &config);

    /** Expand the axes (then append explicit cells). Names are
     *  guaranteed unique (fatal otherwise). */
    std::vector<Cell> cells() const;

    const std::string &name() const { return name_; }

    std::size_t variantCount() const { return variants_.size(); }
    std::size_t workloadCount() const { return workloads_.size(); }

  private:
    std::string name_;
    std::vector<WorkloadSpec> workloads_;
    std::vector<std::pair<std::string, SystemConfig>> variants_;
    std::vector<std::uint64_t> seeds_{1};
    std::vector<Cell> explicit_;
};

} // namespace seesaw::harness

#endif // SEESAW_HARNESS_CAMPAIGN_HH
