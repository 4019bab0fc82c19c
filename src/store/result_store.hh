/**
 * @file
 * The durable campaign result store: one directory holding an
 * append-only set of JSONL segment files plus a compacted index,
 * with results keyed by (workload, configHash, seed).
 *
 * Layout:
 *
 *   <dir>/MANIFEST.json        {"schema_version": 1}, tmp+rename
 *   <dir>/index.jsonl          compacted records (absent until the
 *                              first compactStore()), tmp+rename
 *   <dir>/segments/<w>.jsonl   per-writer append-only records
 *
 * Durability model: every upsert appends one complete,
 * newline-terminated record and flushes, so a crash can lose at most
 * the final, partially-written line of a segment — loaders detect and
 * skip exactly that (a torn tail), never a completed record. The
 * index and manifest are only ever replaced atomically via
 * tmp-file+rename. Upsert semantics are last-writer-wins per key in
 * load order (index first, then segments sorted by name, lines in
 * file order); superseded records remain visible as history until a
 * compaction, which is what the trend queries read.
 */

#ifndef SEESAW_STORE_RESULT_STORE_HH
#define SEESAW_STORE_RESULT_STORE_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "harness/runner.hh"
#include "store/json_value.hh"

namespace seesaw::store {

/** Bump when a record/manifest change breaks old readers. */
inline constexpr std::uint64_t kSchemaVersion = 1;

/** What identifies a cell's result across campaign invocations. */
struct CellKey
{
    std::string workload;
    std::uint64_t configHash = 0;
    std::uint64_t seed = 0;

    auto operator<=>(const CellKey &) const = default;
};

/** One named stat, preserving the integer/double distinction. */
struct StatValue
{
    std::string name;
    bool integral = true;
    std::uint64_t u = 0;
    double d = 0.0;

    double value() const
    {
        return integral ? static_cast<double>(u) : d;
    }

    /** Semantic equality: a double-typed stat whose value happens to
     *  serialize without a decimal point (e.g. 0.0 -> "0") parses
     *  back as integral, so equality compares values, not the flag. */
    bool operator==(const StatValue &other) const
    {
        if (name != other.name)
            return false;
        if (integral && other.integral)
            return u == other.u;
        return value() == other.value();
    }
};

/** One stored cell result. */
struct CellRecord
{
    CellKey key;
    std::string cell;     //!< campaign cell name
    std::string campaign; //!< campaign that produced this record
    std::string git;      //!< git describe of the producing build
    double wallSeconds = 0.0;
    unsigned cores = 1;
    std::vector<StatValue> stats;
    std::vector<std::vector<StatValue>> perCore; //!< cores>1 only
};

/** @name Conversions to/from the harness result types. */
/// @{
CellRecord makeRecord(const harness::CampaignMetadata &meta,
                      const harness::CellResult &cell);
harness::CellResult toCellResult(const CellRecord &record);
/// @}

/** The key a cell will produce a record under (resume skip checks). */
CellKey keyOf(const harness::Cell &cell);

/**
 * Serialize @p record as one JSONL line (newline included). With
 * @p volatileFields false the git / wall-time / campaign metadata is
 * omitted — the canonical form two equivalent campaign runs must
 * agree on byte-for-byte.
 */
void writeRecordLine(std::ostream &os, const CellRecord &record,
                     bool volatileFields = true);

/** Parse one record line: its "v" schema version, then
 *  parseRecordFields(). @return "" or an error message. */
std::string parseRecord(const JsonValue &doc, CellRecord &out);

/**
 * Parse the key, cell and stats fields of @p doc, with no schema
 * version: a store record body, or one results[] entry of a campaign
 * JSON sink, which carries the same fields. @return "" or an error
 * message.
 */
std::string parseRecordFields(const JsonValue &doc, CellRecord &out);

/** Everything a store directory currently holds. */
struct StoreSnapshot
{
    /** Last-writer-wins view, one record per key. */
    std::map<CellKey, CellRecord> latest;

    /** Every record in load order, superseded ones included —
     *  the raw material for trend queries. */
    std::vector<CellRecord> history;

    /** Torn (partially-written) segment tails skipped on load. */
    std::size_t tornTails = 0;

    bool
    contains(const CellKey &key) const
    {
        return latest.find(key) != latest.end();
    }
};

/** @name Store operations. All return "" on success, else an error
 *  message (schema mismatches are reported, never silently read). */
/// @{

/** Create @p dir (manifest, segments/) if needed; verify the schema
 *  version if it already exists. */
std::string initStore(const std::string &dir);

/** Read the manifest, index and all segments into @p out. */
std::string loadStore(const std::string &dir, StoreSnapshot &out);

/**
 * Fold all segments into index.jsonl (latest records only, sorted by
 * key, atomically replaced) and delete the folded segments. Run only
 * while no campaign is writing to the store.
 */
std::string compactStore(const std::string &dir);

/// @}

/** Write the canonical form of @p snap: latest records sorted by key,
 *  volatile metadata omitted. Two campaign runs over the same cells
 *  must produce byte-identical dumps. */
void canonicalDump(std::ostream &os, const StoreSnapshot &snap);

/**
 * Appends records to one segment file, one flushed line per upsert.
 * Thread-safe across threads of the constructing process; construct
 * one per (campaign, writer) and keep it for the campaign's lifetime
 * so appends stay ordered.
 *
 * Single-writer-per-segment: the segment file belongs to exactly one
 * writer for that writer's lifetime. The constructor takes an
 * exclusive flock() on the segment and holds it until destruction, so
 * a second writer on the same segment (another campaign on the same
 * store, say) fails loudly instead of cutting the line the first one
 * is still writing as a "torn" tail. A fork() that keeps using an
 * inherited writer would interleave two processes' buffered appends
 * into one file, a corruption neither tsan (single process) nor the
 * thread-safety analysis (single address space) can see. upsert()
 * therefore asserts the calling process is the one that constructed
 * the writer; every process that writes to a store constructs its own.
 */
class SegmentWriter
{
  public:
    /** Initializes the store (fatal on schema mismatch), locks
     *  segments/<writerName>.jsonl (fatal while another writer holds
     *  it), drops a torn final line a killed writer left there and
     *  opens the segment for append. */
    SegmentWriter(const std::string &dir, const std::string &writerName);
    ~SegmentWriter();

    /** Append @p record and flush (fatal on a write error or when
     *  called from a process other than the constructing one). */
    void upsert(const CellRecord &record) SEESAW_EXCLUDES(mutex_);

    const std::string &path() const { return path_; }

  private:
    /** Write @p line (newline included) and flush; fatal on error. */
    void appendLineLocked(const std::string &line)
        SEESAW_REQUIRES(mutex_);

    const std::string path_;
    const long ownerPid_; //!< process that owns this segment
    int lockFd_ = -1;     //!< holds the segment's flock()
    AnnotatedMutex mutex_;
    std::ofstream os_ SEESAW_GUARDED_BY(mutex_);
};

} // namespace seesaw::store

#endif // SEESAW_STORE_RESULT_STORE_HH
