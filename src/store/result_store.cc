#include "store/result_store.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string_view>

#include "common/logging.hh"
#include "harness/json.hh"

namespace fs = std::filesystem;

namespace seesaw::store {

namespace {

std::string
manifestPath(const std::string &dir)
{
    return dir + "/MANIFEST.json";
}

std::string
indexPath(const std::string &dir)
{
    return dir + "/index.jsonl";
}

std::string
segmentsDir(const std::string &dir)
{
    return dir + "/segments";
}

/** Write @p content to @p path atomically (tmp file + rename). */
std::string
atomicWrite(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return "cannot open " + tmp;
        os << content;
        os.flush();
        if (!os)
            return "short write to " + tmp;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        return "cannot rename " + tmp + " to " + path + ": " +
               ec.message();
    return "";
}

void
writeStats(harness::JsonWriter &json,
           const std::vector<StatValue> &stats)
{
    json.beginObject();
    for (const auto &s : stats) {
        if (s.integral)
            json.field(s.name, s.u);
        else
            json.field(s.name, s.d);
    }
    json.endObject();
}

std::string
parseStats(const JsonValue &obj, std::vector<StatValue> &out)
{
    if (!obj.isObject())
        return "stats is not an object";
    out.clear();
    out.reserve(obj.members.size());
    for (const auto &[name, v] : obj.members) {
        if (!v.isNumber())
            return "stat " + name + " is not a number";
        StatValue s;
        s.name = name;
        s.integral = v.integral;
        // Keep only the representation in use so StatValue equality
        // means "serializes identically".
        s.u = v.integral ? v.u : 0;
        s.d = v.integral ? 0.0 : v.d;
        out.push_back(std::move(s));
    }
    return "";
}

/** The segment files of @p dir, sorted by name for deterministic
 *  load order. */
std::vector<std::string>
sortedSegments(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(segmentsDir(dir), ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".jsonl")
            out.push_back(entry.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Parse the records of one JSONL file into @p snap. @p tornOk allows
 * the final line to be incomplete (append-only segments a crash may
 * have torn); a malformed line anywhere else is corruption.
 */
std::string
loadRecordFile(const std::string &path, bool tornOk,
               StoreSnapshot &snap)
{
    std::ifstream is(path);
    if (!is)
        return "cannot open " + path;
    std::string content((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());

    std::size_t start = 0;
    std::size_t lineNo = 0;
    while (start < content.size()) {
        const std::size_t nl = content.find('\n', start);
        const bool terminated = nl != std::string::npos;
        const std::string_view line(
            content.data() + start,
            (terminated ? nl : content.size()) - start);
        ++lineNo;
        start = terminated ? nl + 1 : content.size();
        if (line.empty())
            continue;

        JsonValue doc;
        std::string error;
        CellRecord record;
        if (!parseJson(line, doc, error) ||
            !(error = parseRecord(doc, record)).empty()) {
            // Only an unterminated final line may be broken: that is
            // the torn tail of a crashed append. Anything else means
            // the file was corrupted, which must not pass silently.
            if (tornOk && !terminated && start == content.size()) {
                ++snap.tornTails;
                return "";
            }
            return path + ":" + std::to_string(lineNo) + ": " + error;
        }
        snap.latest[record.key] = record;
        snap.history.push_back(std::move(record));
    }
    return "";
}

std::string
checkManifest(const std::string &dir)
{
    std::ifstream is(manifestPath(dir));
    if (!is)
        return "no result store at " + dir + " (missing " +
               manifestPath(dir) + ")";
    std::string content((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
    JsonValue doc;
    std::string error;
    if (!parseJson(content, doc, error))
        return manifestPath(dir) + ": " + error;
    const JsonValue *version = doc.find("schema_version");
    if (version == nullptr || !version->isNumber() ||
        !version->integral)
        return manifestPath(dir) + ": missing schema_version";
    if (version->u != kSchemaVersion)
        return "store " + dir + " has schema version " +
               std::to_string(version->u) + "; this build reads " +
               "version " + std::to_string(kSchemaVersion) +
               " only — refusing to touch it";
    return "";
}

} // namespace

CellKey
keyOf(const harness::Cell &cell)
{
    return CellKey{cell.workload.name, harness::configHash(cell.config),
                   cell.config.seed};
}

CellRecord
makeRecord(const harness::CampaignMetadata &meta,
           const harness::CellResult &cell)
{
    CellRecord record;
    record.key.workload = cell.workload;
    record.key.configHash = cell.configHash;
    record.key.seed = cell.seed;
    record.cell = cell.name;
    record.campaign = meta.campaign;
    record.git = meta.gitDescribe;
    record.wallSeconds = cell.wallSeconds;
    record.cores = cell.result.cores;
    for (const auto &f : harness::resultFields(cell.result))
        record.stats.push_back(StatValue{f.name, f.integral, f.u, f.d});
    if (cell.result.cores > 1) {
        for (const auto &pc : cell.result.perCore) {
            std::vector<StatValue> slice;
            for (const auto &f : harness::perCoreFields(
                     const_cast<PerCoreResult &>(pc))) {
                if (f.integral)
                    slice.push_back(StatValue{f.name, true, *f.u, 0.0});
                else
                    slice.push_back(
                        StatValue{f.name, false, 0, *f.d});
            }
            record.perCore.push_back(std::move(slice));
        }
    }
    return record;
}

harness::CellResult
toCellResult(const CellRecord &record)
{
    harness::CellResult out;
    out.name = record.cell;
    out.workload = record.key.workload;
    out.seed = record.key.seed;
    out.configHash = record.key.configHash;
    out.wallSeconds = record.wallSeconds;
    out.result.workload = record.key.workload;
    out.result.cores = record.cores;

    // Write stats back through the single shared field list; stat
    // names a newer writer added are skipped (the list is
    // append-only, so this reads any record this build understands).
    auto apply = [](const std::vector<harness::MutableResultField>
                        &fields,
                    const std::vector<StatValue> &stats) {
        for (const auto &s : stats) {
            for (const auto &f : fields) {
                if (s.name != f.name)
                    continue;
                if (f.integral)
                    *f.u = s.u;
                else
                    *f.d = s.integral ? static_cast<double>(s.u)
                                      : s.d;
                break;
            }
        }
    };
    apply(harness::mutableResultFields(out.result), record.stats);
    out.result.perCore.resize(record.perCore.size());
    for (std::size_t c = 0; c < record.perCore.size(); ++c)
        apply(harness::perCoreFields(out.result.perCore[c]),
              record.perCore[c]);
    return out;
}

void
writeRecordLine(std::ostream &os, const CellRecord &record,
                bool volatileFields)
{
    harness::JsonWriter json(os);
    json.beginObject()
        .field("v", kSchemaVersion)
        .field("workload", record.key.workload)
        .field("config_hash",
               harness::configHashHex(record.key.configHash))
        .field("seed", record.key.seed)
        .field("cell", record.cell);
    if (volatileFields) {
        json.field("campaign", record.campaign)
            .field("git", record.git)
            .field("wall_seconds", record.wallSeconds);
    }
    json.field("cores", record.cores);
    json.key("stats");
    writeStats(json, record.stats);
    if (record.cores > 1) {
        json.key("per_core").beginArray();
        for (const auto &slice : record.perCore)
            writeStats(json, slice);
        json.endArray();
    }
    json.endObject();
    os << '\n';
}

std::string
parseRecord(const JsonValue &doc, CellRecord &out)
{
    if (!doc.isObject())
        return "record is not an object";
    const JsonValue *version = doc.find("v");
    if (version == nullptr || !version->isNumber() ||
        !version->integral)
        return "record has no schema version";
    if (version->u != kSchemaVersion)
        return "record schema version " + std::to_string(version->u) +
               " unsupported (this build reads version " +
               std::to_string(kSchemaVersion) + ")";
    return parseRecordFields(doc, out);
}

std::string
parseRecordFields(const JsonValue &doc, CellRecord &out)
{
    if (!doc.isObject())
        return "record is not an object";
    const JsonValue *workload = doc.find("workload");
    const JsonValue *hash = doc.find("config_hash");
    const JsonValue *seed = doc.find("seed");
    const JsonValue *cell = doc.find("cell");
    const JsonValue *stats = doc.find("stats");
    if (workload == nullptr || hash == nullptr || seed == nullptr ||
        cell == nullptr || stats == nullptr)
        return "record is missing a key field";

    out = CellRecord{};
    out.key.workload = workload->asString();
    out.key.seed = seed->asU64();
    // Only the exact form configHashHex() writes reads back.
    const std::string &hex = hash->asString();
    out.key.configHash = std::strtoull(hex.c_str(), nullptr, 16);
    if (harness::configHashHex(out.key.configHash) != hex)
        return "bad config_hash " + hex;
    out.cell = cell->asString();
    if (const JsonValue *v = doc.find("campaign"))
        out.campaign = v->asString();
    if (const JsonValue *v = doc.find("git"))
        out.git = v->asString();
    if (const JsonValue *v = doc.find("wall_seconds"))
        out.wallSeconds = v->asDouble();
    if (const JsonValue *v = doc.find("cores"))
        out.cores = static_cast<unsigned>(v->asU64());

    if (std::string error = parseStats(*stats, out.stats);
        !error.empty())
        return error;
    if (const JsonValue *pc = doc.find("per_core")) {
        if (!pc->isArray())
            return "per_core is not an array";
        for (const auto &slice : pc->items) {
            std::vector<StatValue> values;
            if (std::string error = parseStats(slice, values);
                !error.empty())
                return error;
            out.perCore.push_back(std::move(values));
        }
    }
    return "";
}

std::string
initStore(const std::string &dir)
{
    std::error_code ec;
    fs::create_directories(segmentsDir(dir), ec);
    if (ec)
        return "cannot create store directory " + dir + ": " +
               ec.message();
    if (fs::exists(manifestPath(dir)))
        return checkManifest(dir);
    std::ostringstream manifest;
    {
        harness::JsonWriter json(manifest);
        json.beginObject()
            .field("schema_version", kSchemaVersion)
            .field("tool", "seesaw")
            .endObject();
    }
    manifest << '\n';
    return atomicWrite(manifestPath(dir), manifest.str());
}

std::string
loadStore(const std::string &dir, StoreSnapshot &out)
{
    out = StoreSnapshot{};
    if (std::string error = checkManifest(dir); !error.empty())
        return error;
    if (fs::exists(indexPath(dir))) {
        // The index is only ever written atomically, so a torn tail
        // there is corruption, not a crash artifact.
        if (std::string error =
                loadRecordFile(indexPath(dir), false, out);
            !error.empty())
            return error;
    }
    for (const auto &segment : sortedSegments(dir)) {
        if (std::string error = loadRecordFile(segment, true, out);
            !error.empty())
            return error;
    }
    return "";
}

std::string
compactStore(const std::string &dir)
{
    StoreSnapshot snap;
    if (std::string error = loadStore(dir, snap); !error.empty())
        return error;
    const std::vector<std::string> folded = sortedSegments(dir);

    std::ostringstream content;
    for (const auto &[key, record] : snap.latest)
        writeRecordLine(content, record);
    if (std::string error =
            atomicWrite(indexPath(dir), content.str());
        !error.empty())
        return error;

    for (const auto &segment : folded) {
        std::error_code ec;
        fs::remove(segment, ec);
        if (ec)
            return "cannot remove folded segment " + segment + ": " +
                   ec.message();
    }
    return "";
}

void
canonicalDump(std::ostream &os, const StoreSnapshot &snap)
{
    for (const auto &[key, record] : snap.latest)
        writeRecordLine(os, record, /*volatileFields=*/false);
}

namespace {

/** Initialize the store (fatal on schema mismatch) and derive the
 *  sanitized segment path for @p writerName. */
std::string
writerSegmentPath(const std::string &dir, const std::string &writerName)
{
    if (std::string error = initStore(dir); !error.empty())
        SEESAW_FATAL("result store: ", error);
    std::string safe;
    for (const char c : writerName) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        safe += ok ? c : '_';
    }
    SEESAW_ASSERT(!safe.empty(), "segment writer needs a name");
    return segmentsDir(dir) + "/" + safe + ".jsonl";
}

/** Cut a torn final line (the partial append of a killed writer) off
 *  the segment at @p path, so the next append starts a fresh line
 *  instead of completing the fragment into a corrupt record. */
void
dropTornTail(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return; // a new segment
    const std::string content((std::istreambuf_iterator<char>(is)),
                              std::istreambuf_iterator<char>());
    if (content.empty() || content.back() == '\n')
        return;
    const std::size_t nl = content.rfind('\n');
    std::error_code ec;
    fs::resize_file(path, nl == std::string::npos ? 0 : nl + 1, ec);
    if (ec)
        SEESAW_FATAL("cannot drop the torn tail of store segment ",
                     path, ": ", ec.message());
}

} // namespace

SegmentWriter::SegmentWriter(const std::string &dir,
                             const std::string &writerName)
    : path_(writerSegmentPath(dir, writerName)),
      ownerPid_(static_cast<long>(::getpid()))
{
    // Lock before the cut: a tail without a newline may be the line a
    // live writer is still appending, not a killed writer's fragment.
    lockFd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (lockFd_ < 0)
        SEESAW_FATAL("cannot open store segment ", path_, ": ",
                     std::strerror(errno));
    if (::flock(lockFd_, LOCK_EX | LOCK_NB) != 0) {
        if (errno == EWOULDBLOCK)
            SEESAW_FATAL("store segment ", path_,
                         " is being written by another process");
        SEESAW_FATAL("cannot lock store segment ", path_, ": ",
                     std::strerror(errno));
    }
    dropTornTail(path_);
    os_.open(path_, std::ios::app);
    if (!os_)
        SEESAW_FATAL("cannot open store segment ", path_);
}

SegmentWriter::~SegmentWriter()
{
    ::close(lockFd_); // releases the flock
}

void
SegmentWriter::upsert(const CellRecord &record)
{
    // Single-writer-per-segment (see the class comment): a fork()ed
    // child reusing an inherited writer would interleave two
    // processes' appends into one segment — a corruption no
    // single-process tool can see, hence the always-on check.
    SEESAW_ASSERT(static_cast<long>(::getpid()) == ownerPid_,
                  "SegmentWriter for ", path_, " is owned by pid ",
                  ownerPid_, "; a forked process must construct "
                  "its own writer");
    // Serialize to memory first so the file only ever receives whole
    // lines; the flush bounds crash loss to the final line.
    std::ostringstream line;
    writeRecordLine(line, record);
    MutexLock lock(mutex_);
    appendLineLocked(line.str());
}

void
SegmentWriter::appendLineLocked(const std::string &line)
{
    os_ << line;
    os_.flush();
    if (!os_)
        SEESAW_FATAL("short write to store segment ", path_);
}

} // namespace seesaw::store
