#include "harness/sinks.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"
#include "harness/json.hh"

namespace seesaw::harness {

namespace {

MutableResultField
fieldU(const char *name, std::uint64_t &v)
{
    return MutableResultField{name, true, &v, nullptr};
}

MutableResultField
fieldD(const char *name, double &v)
{
    return MutableResultField{name, false, nullptr, &v};
}

/** CSV-quote @p s when it contains a delimiter, quote or newline. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::vector<MutableResultField>
mutableResultFields(RunResult &r)
{
    return {
        fieldU("instructions", r.instructions),
        fieldU("cycles", r.cycles),
        fieldD("ipc", r.ipc),
        fieldD("runtime_ns", r.runtimeNs),
        fieldU("l1_accesses", r.l1Accesses),
        fieldU("l1_hits", r.l1Hits),
        fieldU("l1_misses", r.l1Misses),
        fieldD("l1_mpki", r.l1Mpki),
        fieldU("fast_hits", r.fastHits),
        fieldU("l2_accesses", r.l2Accesses),
        fieldU("l2_hits", r.l2Hits),
        fieldU("llc_accesses", r.llcAccesses),
        fieldU("llc_hits", r.llcHits),
        fieldU("dram_accesses", r.dramAccesses),
        fieldU("tft_lookups", r.tftLookups),
        fieldU("tft_hits", r.tftHits),
        fieldU("superpage_refs", r.superpageRefs),
        fieldU("superpage_refs_tft_miss", r.superpageRefsTftMiss),
        fieldU("superpage_refs_tft_miss_l1_hit",
               r.superpageRefsTftMissL1Hit),
        fieldU("superpage_refs_tft_miss_l1_miss",
               r.superpageRefsTftMissL1Miss),
        fieldD("superpage_coverage", r.superpageCoverage),
        fieldD("superpage_ref_fraction", r.superpageRefFraction),
        fieldD("energy_total_nj", r.energyTotalNj),
        fieldD("l1_cpu_dynamic_nj", r.l1CpuDynamicNj),
        fieldD("l1_coherence_dynamic_nj", r.l1CoherenceDynamicNj),
        fieldD("l1_leakage_nj", r.l1LeakageNj),
        fieldD("outer_nj", r.outerNj),
        fieldD("translation_nj", r.translationNj),
        fieldU("l1i_accesses", r.l1iAccesses),
        fieldU("l1i_misses", r.l1iMisses),
        fieldU("squashes", r.squashes),
        fieldU("probes", r.probes),
        fieldU("probe_hits", r.probeHits),
        fieldU("owner_supplies", r.ownerSupplies),
        fieldD("wp_accuracy", r.wpAccuracy),
        fieldU("promotions", r.promotions),
        fieldU("splinters", r.splinters),
        fieldU("page_faults", r.pageFaults),
        fieldU("prefetch_issued", r.prefetchIssued),
        fieldU("prefetch_useful", r.prefetchUseful),
        fieldU("prefetch_late", r.prefetchLate),
        fieldU("prefetch_illegal_crossing", r.prefetchIllegalCrossing),
    };
}

std::vector<MutableResultField>
perCoreFields(PerCoreResult &p)
{
    return {
        fieldU("instructions", p.instructions),
        fieldU("cycles", p.cycles),
        fieldD("ipc", p.ipc),
        fieldU("l1_accesses", p.l1Accesses),
        fieldU("l1_hits", p.l1Hits),
        fieldU("l1_misses", p.l1Misses),
        fieldU("tft_hits", p.tftHits),
        fieldU("squashes", p.squashes),
        fieldU("page_faults", p.pageFaults),
    };
}

std::vector<ResultField>
resultFields(const RunResult &r)
{
    // Snapshot the single authoritative pointer list; const_cast is
    // sound because the fields are only read here.
    std::vector<ResultField> out;
    for (const auto &f :
         mutableResultFields(const_cast<RunResult &>(r))) {
        if (f.integral)
            out.push_back(ResultField{f.name, true, *f.u, 0.0});
        else
            out.push_back(ResultField{f.name, false, 0, *f.d});
    }
    return out;
}

std::string
gitDescribe()
{
    std::FILE *pipe =
        ::popen("git describe --always --dirty 2>/dev/null", "r");
    if (!pipe)
        return "unknown";
    char buf[128] = {};
    std::string out;
    if (std::fgets(buf, sizeof(buf), pipe))
        out = buf;
    ::pclose(pipe);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

void
emitCampaignJson(std::ostream &os, const CampaignMetadata &meta,
                 const std::vector<CellResult> &results)
{
    JsonWriter json(os);
    json.beginObject()
        .field("schema_version", 1)
        .field("campaign", meta.campaign)
        .field("git", meta.gitDescribe)
        .field("jobs", meta.jobs)
        .field("wall_seconds", meta.wallSeconds)
        .field("cells", results.size());
    json.key("results").beginArray();
    for (const auto &cell : results) {
        json.beginObject()
            .field("cell", cell.name)
            .field("seed", cell.seed)
            .field("config_hash", configHashHex(cell.configHash))
            .field("wall_seconds", cell.wallSeconds)
            .field("workload", cell.result.workload);
        json.key("stats").beginObject();
        for (const auto &f : resultFields(cell.result)) {
            if (f.integral)
                json.field(f.name, f.u);
            else
                json.field(f.name, f.d);
        }
        json.endObject(); // stats
        // Multi-core cells additionally record the per-core slices.
        // Single-core cells omit them so existing goldens and tooling
        // see byte-identical documents.
        if (cell.result.cores > 1) {
            json.field("cores", cell.result.cores);
            json.key("per_core").beginArray();
            for (const auto &pc : cell.result.perCore) {
                json.beginObject();
                for (const auto &f : perCoreFields(
                         const_cast<PerCoreResult &>(pc))) {
                    if (f.integral)
                        json.field(f.name, *f.u);
                    else
                        json.field(f.name, *f.d);
                }
                json.endObject();
            }
            json.endArray();
        }
        json.endObject(); // cell
    }
    json.endArray().endObject();
    os << '\n';
}

std::string
csvHeader()
{
    std::string header = "campaign,git,cell,seed,config_hash,"
                         "wall_seconds,workload";
    for (const auto &f : resultFields(RunResult{})) {
        header += ',';
        header += f.name;
    }
    return header;
}

void
emitCampaignCsv(std::ostream &os, const CampaignMetadata &meta,
                const std::vector<CellResult> &results)
{
    os << csvHeader() << '\n';
    for (const auto &cell : results) {
        os << csvField(meta.campaign) << ','
           << csvField(meta.gitDescribe) << ',' << csvField(cell.name)
           << ',' << cell.seed << ',' << configHashHex(cell.configHash)
           << ',' << cell.wallSeconds << ','
           << csvField(cell.result.workload);
        char buf[32];
        for (const auto &f : resultFields(cell.result)) {
            if (f.integral) {
                os << ',' << f.u;
            } else {
                std::snprintf(buf, sizeof(buf), "%.17g", f.d);
                os << ',' << buf;
            }
        }
        os << '\n';
    }
}

std::vector<std::string>
writeCampaignSinks(const CampaignMetadata &meta,
                   const std::vector<CellResult> &results,
                   std::string dir)
{
    if (dir.empty()) {
        const char *env = std::getenv("SEESAW_RESULTS_DIR");
        dir = env && *env ? env : "results";
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        SEESAW_FATAL("cannot create results directory ", dir, ": ",
                     ec.message());

    std::vector<std::string> paths;
    for (const char *ext : {".json", ".csv"}) {
        const std::string path = dir + "/" + meta.campaign + ext;
        // Write to a sibling temp file and rename over the target so
        // an interrupted campaign never leaves a truncated sink: the
        // rename is atomic, so readers see the old file or the new
        // one, never a half-written document.
        const std::string tmp = path + ".tmp";
        {
            std::ofstream os(tmp, std::ios::trunc);
            if (!os)
                SEESAW_FATAL("cannot open result sink ", tmp);
            if (ext[1] == 'j')
                emitCampaignJson(os, meta, results);
            else
                emitCampaignCsv(os, meta, results);
            os.flush();
            if (!os)
                SEESAW_FATAL("short write to result sink ", tmp);
        }
        std::filesystem::rename(tmp, path, ec);
        if (ec)
            SEESAW_FATAL("cannot publish result sink ", path, ": ",
                         ec.message());
        paths.push_back(path);
    }
    return paths;
}

} // namespace seesaw::harness
