#include "workload/trace.hh"

#include <array>
#include <cstring>
#include <ios>

#include "common/logging.hh"
#include "common/types.hh"

namespace seesaw {

namespace {

constexpr char kMagic[8] = {'S', 'E', 'E', 'S', 'A', 'W', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kHeaderTail[2] = {kVersion, 0};

struct RawRecord
{
    std::uint32_t gap;
    std::uint8_t isWrite;
    std::uint8_t pad[3];
    std::uint64_t va;
};
static_assert(sizeof(RawRecord) == 16, "trace record must be 16 bytes");

} // namespace

TraceWriter::TraceWriter(const std::string &path)
    : path_(path), file_(std::fopen(path.c_str(), "wb"))
{
    if (!file_)
        SEESAW_FATAL("cannot open trace for writing: ", path);
    if (std::fwrite(kMagic, 1, sizeof(kMagic), file_) !=
            sizeof(kMagic) ||
        std::fwrite(kHeaderTail, sizeof(kHeaderTail[0]), 2, file_) !=
            2) {
        SEESAW_FATAL("short write of trace header to ", path,
                     " (disk full?)");
    }
}

TraceWriter::~TraceWriter()
{
    // fclose flushes stdio's buffer; a failure here means the tail of
    // the trace never reached disk. We cannot FATAL from a destructor
    // (it may run during unwinding), so report loudly instead.
    if (file_ && std::fclose(file_) != 0)
        SEESAW_WARN("error closing trace ", path_,
                    " — archive may be truncated");
}

void
TraceWriter::append(const MemRef &ref)
{
    RawRecord raw{};
    raw.gap = ref.gap;
    raw.isWrite = ref.type == AccessType::Write ? 1 : 0;
    raw.va = ref.va;
    if (std::fwrite(&raw, sizeof(raw), 1, file_) != 1)
        SEESAW_FATAL("short write of trace record ", records_, " to ",
                     path_, " (disk full?)");
    ++records_;
}

TraceReader::TraceReader(const std::string &path)
    : path_(path), file_(std::fopen(path.c_str(), "rb"))
{
    if (!file_)
        SEESAW_FATAL("cannot open trace for reading: ", path);
    char magic[8];
    std::uint32_t header[2];
    if (std::fread(magic, 1, sizeof(magic), file_) != sizeof(magic) ||
        std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
        SEESAW_FATAL("bad trace magic in ", path);
    }
    if (std::fread(header, sizeof(header[0]), 2, file_) != 2 ||
        header[0] != kVersion) {
        SEESAW_FATAL("unsupported trace version in ", path);
    }
}

TraceReader::~TraceReader()
{
    if (file_)
        std::fclose(file_);
}

std::optional<MemRef>
TraceReader::next()
{
    RawRecord raw;
    const auto got = std::fread(&raw, 1, sizeof(raw), file_);
    if (got != sizeof(raw)) {
        // Distinguish a clean end-of-trace from a torn record or an
        // I/O error: archived campaigns must fail loudly, not quietly
        // replay a prefix.
        if (std::ferror(file_))
            SEESAW_FATAL("read error in trace ", path_);
        if (got != 0)
            SEESAW_FATAL("truncated trace record in ", path_, " (",
                         got, " of ", sizeof(raw),
                         " bytes) — file was cut short");
        return std::nullopt;
    }
    // The simulator models VAs below 2^kVirtualAddressBits only (a TLB
    // key holds a 46-bit 4KB page number); refuse a wider one here,
    // where it enters the program, rather than map a page no TLB can
    // tag.
    if (raw.va >> kVirtualAddressBits != 0)
        SEESAW_FATAL("trace record ", records_, " in ", path_,
                     ": virtual address 0x", std::hex, raw.va, std::dec,
                     " is not below 2^", kVirtualAddressBits,
                     " (the TLBs hold 46-bit 4KB page numbers)");
    ++records_;
    MemRef ref;
    ref.gap = raw.gap;
    ref.type = raw.isWrite ? AccessType::Write : AccessType::Read;
    ref.va = raw.va;
    return ref;
}

} // namespace seesaw
