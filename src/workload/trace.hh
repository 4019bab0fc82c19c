/**
 * @file
 * A minimal binary memory-trace format, so externally captured traces
 * (e.g., from Pin, as the paper used) can be replayed through the
 * simulator, and generated streams can be archived.
 *
 * Record layout (little-endian, 16 bytes):
 *   u32 gap | u8 isWrite | u8 pad[3] | u64 va
 * preceded by an 16-byte header: magic "SEESAWTR", u32 version, u32 pad.
 */

#ifndef SEESAW_WORKLOAD_TRACE_HH
#define SEESAW_WORKLOAD_TRACE_HH

#include <cstdio>
#include <optional>
#include <string>

#include "workload/reference_stream.hh"

namespace seesaw {

/** Writes MemRef records to a binary trace file. */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();
    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Write one record; fatal on a short write (e.g. disk full). */
    void append(const MemRef &ref);
    std::uint64_t records() const { return records_; }

  private:
    std::string path_;
    std::FILE *file_;
    std::uint64_t records_ = 0;
};

/** Reads MemRef records back from a binary trace file. */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);
    ~TraceReader();
    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** @return The next record, or nullopt at a clean end of trace.
     *  A torn trailing record or read error is fatal — a truncated
     *  archive must never silently replay as a shorter trace — and so
     *  is a VA at or above 2^kVirtualAddressBits, which the simulator
     *  cannot model. */
    std::optional<MemRef> next();

  private:
    std::string path_;
    std::FILE *file_;
    std::uint64_t records_ = 0; //!< records read so far
};

} // namespace seesaw

#endif // SEESAW_WORKLOAD_TRACE_HH
