#include "store/store_sink.hh"

namespace seesaw::store {

StoreSink::StoreSink(const std::string &dir,
                     const harness::CampaignMetadata &meta,
                     const std::string &writerName)
    : meta_(meta), writer_(dir, writerName)
{
}

void
StoreSink::record(const harness::CellResult &cell)
{
    writer_.upsert(makeRecord(meta_, cell));
    recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::string
splitStored(const std::string &dir,
            const std::vector<harness::Cell> &cells, StoredSplit &out)
{
    out = StoredSplit{};
    StoreSnapshot snapshot;
    if (std::string error = initStore(dir); !error.empty())
        return error;
    if (std::string error = loadStore(dir, snapshot); !error.empty())
        return error;
    for (const auto &cell : cells) {
        if (snapshot.contains(keyOf(cell)))
            ++out.stored;
        else
            out.toRun.push_back(cell);
    }
    return "";
}

std::string
collectOutcome(const std::string &dir, const std::string &campaign,
               const std::vector<harness::Cell> &cells,
               harness::CampaignOutcome &out)
{
    StoreSnapshot snapshot;
    if (std::string error = loadStore(dir, snapshot); !error.empty())
        return error;

    out = harness::CampaignOutcome{};
    out.meta.campaign = campaign;
    out.meta.gitDescribe = harness::gitDescribe();
    out.totalCells = cells.size();
    for (const auto &cell : cells) {
        const auto it = snapshot.latest.find(keyOf(cell));
        if (it == snapshot.latest.end())
            continue;
        harness::CellResult result = toCellResult(it->second);
        // The store keys by (workload, config, seed); the cell name
        // is campaign-local, so prefer the live spec's name.
        result.name = cell.name;
        out.results.push_back(std::move(result));
    }
    out.interrupted = out.results.size() < cells.size();
    return "";
}

} // namespace seesaw::store
