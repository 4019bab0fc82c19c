#include "harness/campaign.hh"

#include <cinttypes>
#include <cstdio>
#include <set>

#include "common/logging.hh"
#include "sim/config_fields.hh"

namespace seesaw::harness {

std::uint64_t
configHash(const SystemConfig &config)
{
    // Hash only, keeping no bytes: the runner hashes each result
    // between engines, where an allocation would split the heap region
    // the next engine reuses.
    FieldWriter w(/*keep_bytes=*/false);
    writeFrontEndFields(config, w);
    writeSubstrateFields(config, w);
    return w.hash();
}

std::string
configHashHex(std::uint64_t hash)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
    return buf;
}

CampaignSpec::CampaignSpec(std::string name) : name_(std::move(name))
{
    SEESAW_ASSERT(!name_.empty(), "campaign needs a name");
}

CampaignSpec &
CampaignSpec::workload(const WorkloadSpec &w)
{
    workloads_.push_back(w);
    return *this;
}

CampaignSpec &
CampaignSpec::workloads(const std::vector<WorkloadSpec> &ws)
{
    workloads_.insert(workloads_.end(), ws.begin(), ws.end());
    return *this;
}

CampaignSpec &
CampaignSpec::variant(std::string label, SystemConfig config)
{
    SEESAW_ASSERT(!label.empty(), "variant needs a label");
    variants_.emplace_back(std::move(label), std::move(config));
    return *this;
}

CampaignSpec &
CampaignSpec::seeds(std::vector<std::uint64_t> seeds)
{
    SEESAW_ASSERT(!seeds.empty(), "campaign needs at least one seed");
    seeds_ = std::move(seeds);
    return *this;
}

CampaignSpec &
CampaignSpec::cell(std::string name, const WorkloadSpec &workload,
                   const SystemConfig &config)
{
    explicit_.push_back(Cell{std::move(name), workload, config});
    return *this;
}

std::vector<Cell>
CampaignSpec::cells() const
{
    std::vector<Cell> out;
    out.reserve(workloads_.size() * variants_.size() * seeds_.size() +
                explicit_.size());
    for (const auto &w : workloads_) {
        for (const auto &[label, config] : variants_) {
            for (const std::uint64_t seed : seeds_) {
                Cell c{w.name + "/" + label, w, config};
                if (seeds_.size() > 1)
                    c.name += "/s" + std::to_string(seed);
                c.config.seed = seed;
                out.push_back(std::move(c));
            }
        }
    }
    out.insert(out.end(), explicit_.begin(), explicit_.end());

    std::set<std::string> names;
    for (const auto &c : out) {
        if (!names.insert(c.name).second)
            SEESAW_FATAL("duplicate cell name in campaign ", name_,
                         ": ", c.name);
    }
    return out;
}

} // namespace seesaw::harness
