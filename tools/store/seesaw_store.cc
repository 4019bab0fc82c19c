/**
 * @file
 * Operator CLI for the campaign result store: live progress
 * (`status`), record listing (`ls`), canonical export (`dump`),
 * golden/drift comparison (`diff` — between two stores, between a
 * store and a campaign JSON sink, or between two sinks), historical
 * stat queries (`trend`) and maintenance (`compact`).
 *
 * `diff` is the one comparator of campaign results, and it is exact:
 * the simulator is deterministic, so any two runs of the same cells
 * must agree bit for bit. Cells are matched by their (workload,
 * config_hash, seed) key; each matched pair must agree on its cell
 * name, core count, every stat and every per-core stat, and a key on
 * one side only is drift. Deliberately not compared:
 *  - the campaign name, which names a run, not a result (stores
 *    treat it as volatile too);
 *  - result order, which `CampaignRunner.SerialAndParallelAreBitIdentical`
 *    pins;
 *  - git revisions, job counts and wall times, which vary by host.
 * A JSON sink must be schema version 1, hold the cell count its
 * header gives, and hold each key once.
 * Exit status: 0 = identical, 1 = drift, 2 = usage or input error.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "store/result_store.hh"

namespace fs = std::filesystem;
using namespace seesaw;
using store::CellKey;
using store::CellRecord;
using store::StatValue;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: seesaw_store COMMAND [args]\n"
        "  status DIR                store overview\n"
        "  ls DIR                    one line per (latest) stored "
        "cell\n"
        "  dump DIR                  canonical JSONL to stdout "
        "(sorted,\n"
        "                            volatile fields omitted)\n"
        "  diff A B [--ignore STAT]  compare stores and/or campaign "
        "JSON\n"
        "                            sinks cell by cell: cell name, "
        "cores,\n"
        "                            stats and per-core stats; exit 1 "
        "on\n"
        "                            drift. Not compared: campaign "
        "name,\n"
        "                            result order, git, jobs, wall "
        "times\n"
        "  trend DIR STAT [FILTER]   STAT's history, oldest first, "
        "for\n"
        "                            cells whose name contains "
        "FILTER\n"
        "  compact DIR               fold segments into the index\n");
    return 2;
}

bool
isStoreDir(const std::string &path)
{
    return fs::is_directory(path) &&
           fs::exists(path + "/MANIFEST.json");
}

std::string
keyLabel(const CellKey &key)
{
    return key.workload + "/" + harness::configHashHex(key.configHash) +
           "/s" + std::to_string(key.seed);
}

/** Load a campaign JSON sink's results[] into store records. */
std::string
loadCampaignJson(const std::string &path,
                 std::map<CellKey, CellRecord> &out)
{
    std::ifstream is(path);
    if (!is)
        return "cannot open " + path;
    const std::string content(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    store::JsonValue doc;
    std::string error;
    if (!store::parseJson(content, doc, error))
        return path + ": " + error;
    const store::JsonValue *results = doc.find("results");
    if (results == nullptr || !results->isArray())
        return path + ": no results array (not a campaign sink?)";
    // The version emitCampaignJson writes; like the store, refuse any
    // other rather than read it as this one.
    const store::JsonValue *version = doc.find("schema_version");
    if (version == nullptr || !version->isNumber() ||
        !version->integral || version->u != 1)
        return path + ": not a schema version 1 campaign sink";
    const store::JsonValue *cells = doc.find("cells");
    if (cells == nullptr || !cells->isNumber() || !cells->integral ||
        cells->u != results->items.size())
        return path + ": results holds " +
               std::to_string(results->items.size()) +
               " cells, not the count its header gives";

    for (const auto &entry : results->items) {
        CellRecord record;
        error = store::parseRecordFields(entry, record);
        if (!error.empty())
            return path + ": " + error;
        const auto [it, fresh] = out.try_emplace(record.key, record);
        if (!fresh)
            return path + ": cells " + it->second.cell + " and " +
                   record.cell + " share key " + keyLabel(record.key);
    }
    return "";
}

/** Load either a store directory or a campaign JSON sink. */
std::string
loadSide(const std::string &path, std::map<CellKey, CellRecord> &out)
{
    if (isStoreDir(path)) {
        store::StoreSnapshot snap;
        if (std::string error = store::loadStore(path, snap);
            !error.empty())
            return error;
        out = std::move(snap.latest);
        return "";
    }
    if (fs::is_regular_file(path))
        return loadCampaignJson(path, out);
    return path + " is neither a result store nor a campaign JSON "
                  "sink";
}

std::string
statText(const StatValue &s)
{
    if (s.integral)
        return std::to_string(s.u);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", s.d);
    return buf;
}

/** Compare one stat list; print drift lines; return count. */
std::size_t
diffStats(const std::string &where,
          const std::vector<StatValue> &a,
          const std::vector<StatValue> &b,
          const std::set<std::string> &ignored)
{
    std::map<std::string, const StatValue *> bByName;
    for (const auto &s : b)
        bByName[s.name] = &s;
    std::size_t drift = 0;
    std::set<std::string> seen;
    for (const auto &s : a) {
        if (ignored.count(s.name))
            continue;
        seen.insert(s.name);
        const auto it = bByName.find(s.name);
        if (it == bByName.end()) {
            std::printf("  %s/%s: only in first\n", where.c_str(),
                        s.name.c_str());
            ++drift;
            continue;
        }
        if (s.integral != it->second->integral ||
            (s.integral ? s.u != it->second->u
                        : s.d != it->second->d)) {
            std::printf("  %s/%s: %s vs %s\n", where.c_str(),
                        s.name.c_str(), statText(s).c_str(),
                        statText(*it->second).c_str());
            ++drift;
        }
    }
    for (const auto &s : b) {
        if (!ignored.count(s.name) && !seen.count(s.name)) {
            std::printf("  %s/%s: only in second\n", where.c_str(),
                        s.name.c_str());
            ++drift;
        }
    }
    return drift;
}

int
cmdStatus(const std::string &dir)
{
    store::StoreSnapshot snap;
    if (std::string error = store::loadStore(dir, snap);
        !error.empty()) {
        std::fprintf(stderr, "seesaw_store: %s\n", error.c_str());
        return 2;
    }
    std::size_t segments = 0;
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(dir + "/segments", ec)) {
        if (entry.path().extension() == ".jsonl")
            ++segments;
    }
    std::map<std::string, unsigned> campaigns;
    for (const auto &record : snap.history)
        ++campaigns[record.campaign.empty() ? "(none)"
                                            : record.campaign];

    std::printf("store %s\n", dir.c_str());
    std::printf("  schema version %" PRIu64 "\n",
                store::kSchemaVersion);
    std::printf("  %zu cells (%zu records, %zu segment file%s%s)\n",
                snap.latest.size(), snap.history.size(), segments,
                segments == 1 ? "" : "s",
                fs::exists(dir + "/index.jsonl") ? ", index" : "");
    if (snap.tornTails)
        std::printf("  %zu torn segment tail%s skipped (crash "
                    "artifacts)\n",
                    snap.tornTails, snap.tornTails == 1 ? "" : "s");
    for (const auto &[name, records] : campaigns)
        std::printf("  campaign %s: %u record%s\n", name.c_str(),
                    records, records == 1 ? "" : "s");
    return 0;
}

int
cmdLs(const std::string &dir)
{
    store::StoreSnapshot snap;
    if (std::string error = store::loadStore(dir, snap);
        !error.empty()) {
        std::fprintf(stderr, "seesaw_store: %s\n", error.c_str());
        return 2;
    }
    for (const auto &[key, record] : snap.latest)
        std::printf("%-44s cores=%u campaign=%s cell=%s\n",
                    keyLabel(key).c_str(), record.cores,
                    record.campaign.empty() ? "-"
                                            : record.campaign.c_str(),
                    record.cell.c_str());
    std::printf("%zu cells\n", snap.latest.size());
    return 0;
}

int
cmdDump(const std::string &dir)
{
    store::StoreSnapshot snap;
    if (std::string error = store::loadStore(dir, snap);
        !error.empty()) {
        std::fprintf(stderr, "seesaw_store: %s\n", error.c_str());
        return 2;
    }
    store::canonicalDump(std::cout, snap);
    return 0;
}

int
cmdDiff(const std::string &pathA, const std::string &pathB,
        const std::set<std::string> &ignored)
{
    std::map<CellKey, CellRecord> a, b;
    if (std::string error = loadSide(pathA, a); !error.empty()) {
        std::fprintf(stderr, "seesaw_store: %s\n", error.c_str());
        return 2;
    }
    if (std::string error = loadSide(pathB, b); !error.empty()) {
        std::fprintf(stderr, "seesaw_store: %s\n", error.c_str());
        return 2;
    }

    std::size_t drift = 0;
    for (const auto &[key, record] : a) {
        const auto it = b.find(key);
        if (it == b.end()) {
            std::printf("  %s: only in %s\n", keyLabel(key).c_str(),
                        pathA.c_str());
            ++drift;
            continue;
        }
        const CellRecord &other = it->second;
        const std::string label = keyLabel(key);
        if (record.cell != other.cell) {
            std::printf("  %s/cell: %s vs %s\n", label.c_str(),
                        record.cell.c_str(), other.cell.c_str());
            ++drift;
        }
        if (record.cores != other.cores) {
            std::printf("  %s/cores: %u vs %u\n", label.c_str(),
                        record.cores, other.cores);
            ++drift;
        }
        drift += diffStats(label, record.stats, other.stats, ignored);
        if (record.perCore.size() != other.perCore.size()) {
            std::printf("  %s/per_core: %zu vs %zu slices\n",
                        label.c_str(), record.perCore.size(),
                        other.perCore.size());
            ++drift;
        } else {
            for (std::size_t c = 0; c < record.perCore.size(); ++c)
                drift += diffStats(
                    label + "/core" + std::to_string(c),
                    record.perCore[c], other.perCore[c], ignored);
        }
    }
    for (const auto &[key, record] : b) {
        if (!a.count(key)) {
            std::printf("  %s: only in %s\n", keyLabel(key).c_str(),
                        pathB.c_str());
            ++drift;
        }
    }
    if (drift) {
        std::printf("%zu difference%s between %s and %s\n", drift,
                    drift == 1 ? "" : "s", pathA.c_str(),
                    pathB.c_str());
        return 1;
    }
    std::printf("%s and %s agree on %zu cells\n", pathA.c_str(),
                pathB.c_str(), a.size());
    return 0;
}

int
cmdTrend(const std::string &dir, const std::string &stat,
         const std::string &filter)
{
    store::StoreSnapshot snap;
    if (std::string error = store::loadStore(dir, snap);
        !error.empty()) {
        std::fprintf(stderr, "seesaw_store: %s\n", error.c_str());
        return 2;
    }
    std::size_t matched = 0;
    for (const auto &record : snap.history) {
        if (!filter.empty() &&
            record.cell.find(filter) == std::string::npos &&
            record.key.workload.find(filter) == std::string::npos)
            continue;
        for (const auto &s : record.stats) {
            if (s.name != stat)
                continue;
            std::printf("%-40s %-14s %-20s %s\n", record.cell.c_str(),
                        record.git.empty() ? "-"
                                           : record.git.c_str(),
                        record.campaign.empty()
                            ? "-"
                            : record.campaign.c_str(),
                        statText(s).c_str());
            ++matched;
            break;
        }
    }
    if (matched == 0) {
        std::fprintf(stderr,
                     "seesaw_store: no records with stat %s%s%s\n",
                     stat.c_str(),
                     filter.empty() ? "" : " matching ",
                     filter.c_str());
        return 1;
    }
    return 0;
}

int
cmdCompact(const std::string &dir)
{
    if (std::string error = store::compactStore(dir);
        !error.empty()) {
        std::fprintf(stderr, "seesaw_store: %s\n", error.c_str());
        return 2;
    }
    store::StoreSnapshot snap;
    if (std::string error = store::loadStore(dir, snap);
        !error.empty()) {
        std::fprintf(stderr, "seesaw_store: %s\n", error.c_str());
        return 2;
    }
    std::printf("compacted %s: %zu cells in the index\n", dir.c_str(),
                snap.latest.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    std::vector<std::string> args;
    std::set<std::string> ignored;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--ignore") == 0 && i + 1 < argc)
            ignored.insert(argv[++i]);
        else
            args.emplace_back(argv[i]);
    }

    if (command == "status" && args.size() == 1)
        return cmdStatus(args[0]);
    if (command == "ls" && args.size() == 1)
        return cmdLs(args[0]);
    if (command == "dump" && args.size() == 1)
        return cmdDump(args[0]);
    if (command == "diff" && args.size() == 2)
        return cmdDiff(args[0], args[1], ignored);
    if (command == "trend" && (args.size() == 2 || args.size() == 3))
        return cmdTrend(args[0], args[1],
                        args.size() == 3 ? args[2] : "");
    if (command == "compact" && args.size() == 1)
        return cmdCompact(args[0]);
    return usage();
}
