/**
 * @file
 * Bridges the campaign runner to the durable result store. Each
 * finished cell becomes one upserted record, flushed before the
 * completion callback returns, so everything a crashed campaign
 * completed is already on disk; a resumed campaign asks the store which
 * cells it still has to run and rebuilds its outcome from the store.
 */

#ifndef SEESAW_STORE_STORE_SINK_HH
#define SEESAW_STORE_STORE_SINK_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "store/result_store.hh"

namespace seesaw::store {

/**
 * A durable per-cell sink. Construct one per campaign invocation and
 * hand hook() to RunnerOptions::onCellDone (or call record()
 * directly). Thread-safe via the underlying SegmentWriter.
 */
class StoreSink
{
  public:
    /**
     * Opens segment `<writerName>.jsonl` in @p dir (fatal on schema
     * mismatch). @p meta supplies the volatile record metadata
     * (campaign name, git describe); its wall time is ignored —
     * per-cell wall time is recorded instead.
     */
    StoreSink(const std::string &dir,
              const harness::CampaignMetadata &meta,
              const std::string &writerName);

    /** Upsert @p cell into the store. */
    void record(const harness::CellResult &cell);

    /** An onCellDone-compatible callable bound to this sink. */
    std::function<void(const harness::CellResult &)>
    hook()
    {
        return [this](const harness::CellResult &c) { record(c); };
    }

    /** Cells recorded through this sink so far. */
    std::size_t recorded() const { return recorded_; }

  private:
    const harness::CampaignMetadata meta_;
    SegmentWriter writer_; //!< internally synchronized
    std::atomic<std::size_t> recorded_{0};
};

/** A campaign's cells split by whether a store already holds them. */
struct StoredSplit
{
    std::vector<harness::Cell> toRun; //!< cells the store lacks, in order
    std::size_t stored = 0;           //!< cells the store already holds
};

/**
 * Create the store at @p dir if needed, load it once and split
 * @p cells by key (keyOf) into the ones it holds and the ones still to
 * run. A store that fails to load — a corrupt segment line, a foreign
 * schema — is an error, so a resume never runs cells on top of it.
 * @return "" or an error message (@p out is then empty).
 */
std::string splitStored(const std::string &dir,
                        const std::vector<harness::Cell> &cells,
                        StoredSplit &out);

/**
 * Rebuild a campaign outcome from the store at @p dir: one CellResult
 * per cell of @p cells the store holds, in the order of @p cells and
 * under each cell's own name; cells without a record leave the outcome
 * marked interrupted.
 * @return "" or an error message.
 */
std::string collectOutcome(const std::string &dir,
                           const std::string &campaign,
                           const std::vector<harness::Cell> &cells,
                           harness::CampaignOutcome &out);

} // namespace seesaw::store

#endif // SEESAW_STORE_STORE_SINK_HH
