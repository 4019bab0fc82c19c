#include "sim/sim_engine.hh"

#include "check/coherence_audits.hh"
#include "check/invariant_auditor.hh"

namespace seesaw {

std::uint64_t
SimEngine::coreSeed(std::uint64_t seed, unsigned core)
{
    if (core == 0)
        return seed; // core 0 is the classic single-core stream
    // SplitMix64: golden-ratio increment + finalizer. A plain
    // `seed ^ (salt + core)` leaves adjacent cores' streams
    // low-bit-correlated; the finalizer avalanches every input bit.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * core;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

bool
SimEngine::checkDirectoryInvariant()
{
    ExactDirectory *dir = directory();
    if (!dir)
        return true;
    // One-shot run of the shared directory-consistency audit with a
    // collecting handler (the full bidirectional MOESI cross-check).
    check::InvariantAuditor auditor;
    std::uint64_t found = 0;
    auditor.setViolationHandler(
        [&found](const check::Violation &) { ++found; });

    std::vector<const L1Cache *> l1s;
    l1s.reserve(cores());
    for (unsigned c = 0; c < cores(); ++c)
        l1s.push_back(&l1(c));
    auditor.registerCheck("directory", [&](check::AuditContext &ctx) {
        check::auditDirectoryConsistency(*dir, l1s, ctx);
    });
    auditor.runAll(0);
    return found == 0;
}

} // namespace seesaw
