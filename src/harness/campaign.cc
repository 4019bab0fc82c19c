#include "harness/campaign.hh"

#include <set>
#include <type_traits>

#include "common/logging.hh"
#include "sim/config_fields.hh"
#include "sim/experiment.hh"

namespace seesaw::harness {

namespace {

/** Incremental FNV-1a over the raw bytes of trivially-copyable data. */
class Fnv1a
{
  public:
    template <typename T>
    void mix(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *bytes = reinterpret_cast<const unsigned char *>(
            &value);
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            hash_ ^= bytes[i];
            hash_ *= 0x100000001b3ULL;
        }
    }

    void mix(const std::string &value)
    {
        for (const char c : value)
            mix(c);
        mix(value.size());
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

} // namespace

std::uint64_t
configHash(const SystemConfig &config)
{
    FieldWriter w;
    writeFrontEndFields(config, w);
    writeTlbGeometryFields(config, w);
    writeSubstrateFields(config, w);
    Fnv1a h;
    h.mix(w.bytes());
    return h.value();
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
CampaignSpec::cell(std::string name, std::function<RunResult()> run,
                   std::uint64_t seed, std::uint64_t config_hash,
                   std::string workload)
{
    SEESAW_ASSERT(run, "explicit cell needs a runner");
    Cell c;
    c.name = std::move(name);
    c.workload = std::move(workload);
    c.seed = seed;
    c.configHash = config_hash;
    c.run = std::move(run);
    explicit_.push_back(std::move(c));
    return *this;
}

CampaignSpec &
CampaignSpec::cell(std::string name, const WorkloadSpec &workload,
                   const SystemConfig &config)
{
    Cell c;
    c.name = std::move(name);
    c.workload = workload.name;
    c.seed = config.seed;
    c.configHash = configHash(config);
    c.onePass = std::make_shared<const Cell::OnePassInfo>(
        Cell::OnePassInfo{workload, config});
    c.run = [workload, config] { return simulate(workload, config); };
    explicit_.push_back(std::move(c));
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
                Cell c;
                c.name = w.name + "/" + label;
                if (seeds_.size() > 1)
                    c.name += "/s" + std::to_string(seed);
                c.workload = w.name;
                c.seed = seed;
                SystemConfig seeded = config;
                seeded.seed = seed;
                c.configHash = configHash(seeded);
                c.onePass = std::make_shared<const Cell::OnePassInfo>(
                    Cell::OnePassInfo{w, seeded});
                c.run = [w, seeded] { return simulate(w, seeded); };
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
