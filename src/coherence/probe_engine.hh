/**
 * @file
 * Generates the coherence probe load on the simulated L1.
 *
 * Probes come from two sources the paper identifies (Fig 11): sharing
 * traffic from the other threads of multi-threaded workloads, and
 * system-level activity (OS, network stack) that exercises coherence
 * even under single-threaded applications. Every probe pays an L1
 * lookup whose width depends on the cache design — the whole set for
 * baseline VIPT, one partition for SEESAW with the 4way policy.
 *
 * The address stream depends on the fabric the paper evaluates: a
 * directory forwards probes only for lines the L1 actually holds, while
 * a snoopy bus broadcasts every remote transaction, so the L1 is also
 * probed for many absent lines — which is why SEESAW's cheap probes buy
 * an extra 2-5% in snoopy systems (Section VI-B).
 */

#ifndef SEESAW_COHERENCE_PROBE_ENGINE_HH
#define SEESAW_COHERENCE_PROBE_ENGINE_HH

#include <vector>

#include "cache/l1_cache.hh"
#include "coherence/fabric.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "model/energy_model.hh"

namespace seesaw {

/**
 * Tracks lines recently resident in the local L1 so the probe stream
 * can target real data (a directory forwards probes only for lines the
 * directory believes we hold).
 */
class ResidentLineTracker
{
  public:
    explicit ResidentLineTracker(std::size_t capacity = 8192);

    /** Record that the line containing @p pa is (still) resident. */
    void note(Addr pa);

    /** @return A recently resident line address, or 0 if empty. */
    Addr sample(Rng &rng) const;

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

  private:
    std::vector<Addr> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

/** Probe-load parameters. */
struct ProbeEngineParams
{
    /** Directed probes per 1000 instructions from system activity. */
    double systemProbesPerKiloInstr = 25.0;

    /** Additional directed probes per 1000 instructions contributed by
     *  each sharing remote thread. */
    double sharingProbesPerKiloInstrPerThread = 50.0;

    /** Remote threads actively sharing (threads - 1 for MT loads). */
    unsigned remoteThreads = 0;

    /** Fraction of shared footprint (scales the sharing component). */
    double sharedFraction = 0.0;

    double invalidatingFraction = 0.10;

    CoherenceKind fabric = CoherenceKind::Directory;

    /** Snoopy only: absent-line broadcasts per directed probe. */
    double snoopAbsentFactor = 3.0;

    std::uint64_t seed = 0xc0de;
};

/**
 * Drives coherence probes into one L1 and accounts their energy.
 */
class ProbeEngine
{
  public:
    ProbeEngine(const ProbeEngineParams &params, L1Cache &l1,
                EnergyModel &energy);

    /** Record a line the L1 just touched/filled (directory presence). */
    void noteResident(Addr pa) { resident_.note(pa); }

    /**
     * Advance by @p instructions committed instructions, issuing the
     * probes that fall due in that window: the directed probes to
     * resident lines, then (snoopy only) the absent-line broadcasts.
     */
    void tick(std::uint64_t instructions);

    /** Total probes issued. */
    std::uint64_t probes() const { return stProbes_->count(); }

    /** Probes that hit a resident line. */
    std::uint64_t probeHits() const { return stProbeHits_->count(); }

    /** Lines invalidated by write probes. */
    std::uint64_t invalidations() const
    {
        return stInvalidations_->count();
    }

    /** Read probes answered from a dirty resident line. */
    std::uint64_t dirtySupplies() const
    {
        return stDirtySupplies_->count();
    }

    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

    /** Effective directed-probe rate per kilo-instruction. */
    double directedRate() const { return directedRate_; }

  private:
    /** Probe the L1 at @p pa and account the probe. */
    void issue(Addr pa, bool invalidating);

    ProbeEngineParams params_;
    L1Cache &l1_;
    EnergyModel &energy_;
    Rng rng_;
    ResidentLineTracker resident_;
    StatGroup stats_;
    // Hot-path stat handles (registered once; see common/stats.hh).
    StatScalar *stProbes_;
    StatScalar *stProbeHits_;
    StatScalar *stInvalidations_;
    StatScalar *stDirtySupplies_;
    double directedRate_;
    double directedCarry_ = 0.0;
    double absentCarry_ = 0.0;
};

} // namespace seesaw

#endif // SEESAW_COHERENCE_PROBE_ENGINE_HH
