#include "check/cache_audits.hh"

#include <cstdint>
#include <string>
#include <vector>

namespace seesaw::check {

namespace {

std::string
lineLabel(unsigned set, unsigned way)
{
    return "set " + std::to_string(set) + " way " + std::to_string(way);
}

} // namespace

void
auditTagStoreSanity(const SetAssocCache &tags, AuditContext &ctx,
                    bool allow_duplicates)
{
    const unsigned line_bits = [&] {
        unsigned bits = 0;
        while ((1U << bits) < tags.lineBytes())
            ++bits;
        return bits;
    }();

    for (unsigned set = 0; set < tags.numSets(); ++set) {
        for (unsigned way = 0; way < tags.assoc(); ++way) {
            // A free way holds a default (Invalid) payload by
            // construction: SetTable resets it on every drop.
            if (!tags.validAt(set, way))
                continue;
            const CacheLine &line = tags.lineAt(set, way);
            const Addr line_addr = tags.lineAddrAt(set, way);
            const Addr pa = line_addr << line_bits;

            // A valid line must be Invalid-free and findable in the
            // set its own address names.
            if (line.state == CoherenceState::Invalid) {
                ctx.violation(pa, lineLabel(set, way) +
                                      ": valid line in state Invalid");
            }
            if (tags.setIndex(pa) != set) {
                ctx.violation(
                    pa, lineLabel(set, way) + ": line belongs to set " +
                            std::to_string(tags.setIndex(pa)) +
                            " (unreachable where it sits)");
            }

            // One physical line in two ways of a set means lookups are
            // nondeterministic — legal only under `4way-8way` aliasing.
            if (!allow_duplicates) {
                for (unsigned other = 0; other < way; ++other) {
                    if (tags.validAt(set, other) &&
                        tags.lineAddrAt(set, other) == line_addr) {
                        ctx.violation(
                            pa, lineLabel(set, way) +
                                    ": same line also valid in way " +
                                    std::to_string(other));
                    }
                }
            }
        }

        // Each policy exports its own side-state invariant (strict
        // timestamp order for LRU/FIFO, RRPV range for SRRIP, nothing
        // for Random).
        tags.auditReplacement(
            set, [&](unsigned way, const std::string &detail) {
                ctx.violation(tags.lineAddrAt(set, way) << line_bits,
                              lineLabel(set, way) + ": " + detail);
            });
    }
}

void
auditSeesawPlacement(const SeesawCache &cache, AuditContext &ctx)
{
    const SetAssocCache &tags = cache.tags();
    if (tags.numPartitions() <= 1)
        return;

    const bool super_only =
        cache.config().policy == InsertionPolicy::FourWayEightWay;
    const unsigned line_bits = [&] {
        unsigned bits = 0;
        while ((1U << bits) < tags.lineBytes())
            ++bits;
        return bits;
    }();

    for (unsigned set = 0; set < tags.numSets(); ++set) {
        for (unsigned way = 0; way < tags.assoc(); ++way) {
            if (!tags.validAt(set, way))
                continue;
            if (super_only && !isSuperpage(tags.lineAt(set, way).pageSize))
                continue;
            const Addr pa = tags.lineAddrAt(set, way) << line_bits;
            const unsigned holds = way / tags.waysPerPartition();
            const unsigned wants = tags.partitionIndex(pa);
            if (holds != wants) {
                ctx.violation(
                    pa,
                    lineLabel(set, way) + ": line sits in partition " +
                        std::to_string(holds) +
                        " but its physical address names partition " +
                        std::to_string(wants) +
                        " (coherence probes read one partition)");
            }
        }
    }
}

void
auditPrefetchPlacement(const SeesawCache &cache, AuditContext &ctx)
{
    const SetAssocCache &tags = cache.tags();
    if (tags.numPartitions() <= 1)
        return;

    const unsigned line_bits = [&] {
        unsigned bits = 0;
        while ((1U << bits) < tags.lineBytes())
            ++bits;
        return bits;
    }();

    // Unlike auditSeesawPlacement, base-page lines get no `4way-8way`
    // exemption here: prefetch fills are always partition-scoped, so
    // any prefetched line outside its PA-named partition means a
    // prefetch crossed into another page's partition.
    for (unsigned set = 0; set < tags.numSets(); ++set) {
        for (unsigned way = 0; way < tags.assoc(); ++way) {
            if (!tags.validAt(set, way) || !tags.lineAt(set, way).prefetched)
                continue;
            const Addr pa = tags.lineAddrAt(set, way) << line_bits;
            const unsigned holds = way / tags.waysPerPartition();
            const unsigned wants = tags.partitionIndex(pa);
            if (holds != wants) {
                ctx.violation(
                    pa, lineLabel(set, way) +
                            ": prefetched line sits in partition " +
                            std::to_string(holds) +
                            " but its physical address names "
                            "partition " +
                            std::to_string(wants) +
                            " (illegal prefetch crossing)");
            }
        }
    }
}

} // namespace seesaw::check
