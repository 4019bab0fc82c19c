#include "gate.hh"

#include <fstream>
#include <sstream>

#include "harness/sinks.hh"

namespace perfbench {

using namespace seesaw;

namespace {

constexpr std::size_t kMaxReasons = 16;

std::string
describe(const harness::MutableResultField &f)
{
    std::ostringstream os;
    os.precision(17);
    if (f.integral)
        os << *f.u;
    else
        os << *f.d;
    return os.str();
}

/** First differing field of two same-shaped field lists, or "". */
std::string
diffFields(const std::vector<harness::MutableResultField> &a,
           const std::vector<harness::MutableResultField> &b,
           const std::string &prefix)
{
    for (std::size_t i = 0; i < a.size(); ++i) {
        const bool same = a[i].integral ? *a[i].u == *b[i].u
                                        : *a[i].d == *b[i].d;
        if (!same) {
            return prefix + a[i].name + " " + describe(a[i]) + " != " +
                   describe(b[i]);
        }
    }
    return {};
}

} // namespace

bool
Gate::record(const std::string &cell,
             const std::vector<std::string> &problems)
{
    ++attempted_;
    std::string joined;
    for (const std::string &p : problems) {
        if (p.empty())
            continue;
        joined += joined.empty() ? "" : "; ";
        joined += p;
    }
    if (joined.empty())
        return true;
    ++failed_;
    if (reasons_.size() < kMaxReasons)
        reasons_.push_back(cell + ": " + joined);
    return false;
}

std::string
diffResults(const RunResult &expected, const RunResult &actual)
{
    if (expected == actual)
        return {};
    RunResult a = expected, b = actual;
    if (a.workload != b.workload)
        return "workload " + a.workload + " != " + b.workload;
    if (std::string d = diffFields(harness::mutableResultFields(a),
                                   harness::mutableResultFields(b), "");
        !d.empty())
        return d;
    if (a.probeInvalidations != b.probeInvalidations) {
        return "probe_invalidations " +
               std::to_string(a.probeInvalidations) + " != " +
               std::to_string(b.probeInvalidations);
    }
    if (a.cores != b.cores || a.perCore.size() != b.perCore.size())
        return "core count differs";
    for (std::size_t c = 0; c < a.perCore.size(); ++c) {
        if (std::string d = diffFields(
                harness::perCoreFields(a.perCore[c]),
                harness::perCoreFields(b.perCore[c]),
                "core" + std::to_string(c) + ".");
            !d.empty())
            return d;
    }
    return "results differ";
}

std::string
identityProblem(const SystemConfig &config, const RunResult &r)
{
    if (r.l1Hits + r.l1Misses != r.l1Accesses) {
        return "l1 hits " + std::to_string(r.l1Hits) + " + misses " +
               std::to_string(r.l1Misses) + " != accesses " +
               std::to_string(r.l1Accesses);
    }
    const std::uint64_t budget = config.instructions * config.cores;
    if (r.instructions != budget) {
        return "instructions " + std::to_string(r.instructions) +
               " != budget " + std::to_string(budget);
    }
    if (r.perCore.size() != config.cores)
        return "per-core slices " + std::to_string(r.perCore.size()) +
               " != cores " + std::to_string(config.cores);
    return {};
}

bool
loadCampaign(const std::string &path, store::JsonValue &doc,
             std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!store::parseJson(text.str(), doc, error)) {
        error = path + ": " + error;
        return false;
    }
    const store::JsonValue *results = doc.find("results");
    if (!doc.isObject() || !results || !results->isArray()) {
        error = path + ": no results array";
        return false;
    }
    return true;
}

std::string
goldenProblem(const store::JsonValue &golden, const std::string &cell,
              const RunResult &r)
{
    const store::JsonValue *entry = nullptr;
    for (const store::JsonValue &item : golden.find("results")->items) {
        const store::JsonValue *name = item.find("cell");
        if (name && name->kind == store::JsonValue::Kind::String &&
            name->str == cell) {
            entry = &item;
            break;
        }
    }
    if (!entry)
        return "no golden cell " + cell;
    const store::JsonValue *stats = entry->find("stats");
    if (!stats || !stats->isObject())
        return "golden cell " + cell + " has no stats";

    RunResult copy = r;
    const auto compare =
        [](const store::JsonValue &obj,
           const std::vector<harness::MutableResultField> &fields,
           const std::string &prefix) -> std::string {
        for (const auto &f : fields) {
            const store::JsonValue *v = obj.find(f.name);
            if (!v || !v->isNumber())
                return "golden lacks " + prefix + f.name;
            const bool same = f.integral
                                  ? v->integral && v->u == *f.u
                                  : v->d == *f.d;
            if (!same) {
                std::ostringstream os;
                os.precision(17);
                os << prefix << f.name << " golden "
                   << (v->integral ? static_cast<double>(v->u) : v->d)
                   << " != " << describe(f);
                return os.str();
            }
        }
        return {};
    };
    if (std::string d =
            compare(*stats, harness::mutableResultFields(copy), "");
        !d.empty())
        return d;
    // Multi-core cells carry their per-core slices beside the stats.
    if (const store::JsonValue *per_core = entry->find("per_core")) {
        if (!per_core->isArray() ||
            per_core->items.size() != copy.perCore.size())
            return "golden per_core shape differs";
        for (std::size_t c = 0; c < copy.perCore.size(); ++c) {
            if (std::string d = compare(
                    per_core->items[c],
                    harness::perCoreFields(copy.perCore[c]),
                    "core" + std::to_string(c) + ".");
                !d.empty())
                return d;
        }
    }
    return {};
}

} // namespace perfbench
