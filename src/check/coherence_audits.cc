#include "check/coherence_audits.hh"

#include <string>

namespace seesaw::check {

void
auditDirectoryConsistency(const ExactDirectory &directory,
                          const std::vector<const L1Cache *> &l1s,
                          AuditContext &ctx)
{
    const unsigned cores = directory.numCores();
    if (l1s.size() < cores) {
        ctx.violation(0, "directory tracks " + std::to_string(cores) +
                             " cores but only " +
                             std::to_string(l1s.size()) +
                             " L1s were supplied to the audit");
        return;
    }

    // Directory -> caches: every claimed sharer really holds the line,
    // and the MOESI single-writer rules hold across the claimed copies.
    directory.forEachEntry([&](Addr pa, std::uint64_t sharers,
                               int owner) {
        if (sharers == 0) {
            ctx.violation(pa, "directory entry with an empty sharer "
                              "vector (should have been erased)");
            return;
        }
        if (cores < 64 && (sharers >> cores) != 0) {
            ctx.violation(pa, "directory sharer vector names a core "
                              "beyond numCores");
            return;
        }
        if (owner >= 0 &&
            (owner >= static_cast<int>(cores) ||
             (sharers & (1ULL << owner)) == 0)) {
            ctx.violation(pa,
                          "directory owner " + std::to_string(owner) +
                              " is not in the sharer vector");
        }

        unsigned copies = 0;
        for (unsigned c = 0; c < cores; ++c)
            copies += (sharers >> c) & 1U;

        for (unsigned c = 0; c < cores; ++c) {
            if (((sharers >> c) & 1U) == 0)
                continue;
            const CacheLine *line = l1s[c]->tags().findLine(pa);
            if (!line) {
                ctx.violation(pa, "directory claims core " +
                                      std::to_string(c) +
                                      " shares the line but its L1 "
                                      "does not hold it");
                continue;
            }
            if (isDirtyState(line->state) &&
                owner != static_cast<int>(c)) {
                ctx.violation(pa,
                              "core " + std::to_string(c) +
                                  " holds a dirty copy but the "
                                  "directory owner is " +
                                  std::to_string(owner));
            }
            if ((line->state == CoherenceState::Exclusive ||
                 line->state == CoherenceState::Modified) &&
                copies > 1) {
                ctx.violation(
                    pa, "core " + std::to_string(c) +
                            " holds the line " +
                            (line->state == CoherenceState::Modified
                                 ? "Modified"
                                 : "Exclusive") +
                            " while " + std::to_string(copies) +
                            " copies exist (E/M must be the sole "
                            "copy system-wide)");
            }
        }
    });

    // Caches -> directory: no L1 caches a line the directory has lost
    // track of (its probes would never reach that copy).
    for (unsigned c = 0; c < cores; ++c) {
        const SetAssocCache &tags = l1s[c]->tags();
        unsigned line_bits = 0;
        while ((1U << line_bits) < tags.lineBytes())
            ++line_bits;
        tags.forEachValidLine([&](Addr line_addr, const CacheLine &) {
            const Addr pa = line_addr << line_bits;
            if (!directory.holds(static_cast<CoreId>(c), pa)) {
                ctx.violation(pa, "core " + std::to_string(c) +
                                      " caches a line the directory "
                                      "does not track for it "
                                      "(untracked copy: probes "
                                      "cannot reach it)");
            }
        });
    }
}

} // namespace seesaw::check
