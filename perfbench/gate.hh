/**
 * @file
 * The benchmark's correctness gate. Every simulated cell the benchmark
 * runs is checked — against the first repeat, against the untraced
 * engine, against per-config runs, against the pinned golden — and a
 * cell that fails any check counts once in cells_failed.
 */

#ifndef SEESAW_PERFBENCH_GATE_HH
#define SEESAW_PERFBENCH_GATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "store/json_value.hh"

namespace perfbench {

/** Counts attempted and failed cells, keeping the first few reasons. */
class Gate
{
  public:
    /** Record one cell; @p problems lists every failed check (empty:
     *  the cell passed). @return whether it passed. */
    bool record(const std::string &cell,
                const std::vector<std::string> &problems);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &reasons() const { return reasons_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

/** "" when @p actual equals @p expected bit for bit; otherwise names
 *  the first differing stat. */
std::string diffResults(const seesaw::RunResult &expected,
                        const seesaw::RunResult &actual);

/** "" when @p r satisfies the identities every run must: L1 hits plus
 *  misses equal accesses, and instructions equal budget × cores. */
std::string identityProblem(const seesaw::SystemConfig &config,
                            const seesaw::RunResult &r);

/** Load a campaign JSON sink (e.g. bench/golden/nightly_campaign.json).
 *  @return false with @p error set when it cannot be read or parsed. */
bool loadCampaign(const std::string &path, seesaw::store::JsonValue &doc,
                  std::string &error);

/** "" when @p r matches the golden cell @p cell stat for stat. */
std::string goldenProblem(const seesaw::store::JsonValue &golden,
                          const std::string &cell,
                          const seesaw::RunResult &r);

} // namespace perfbench

#endif // SEESAW_PERFBENCH_GATE_HH
