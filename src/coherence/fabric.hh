/**
 * @file
 * Pluggable coherence fabrics for the unified N-core engine
 * (sim/multi_config_engine.hh). A CoherenceFabric sits between the per-core
 * CoreComplexes and decides which remote L1s each access must probe:
 *
 *  - DirectoryFabric: an exact MOESI directory (Table II) — every
 *    probe corresponds to a real remote copy, so probe counts, hit
 *    rates and cache-to-cache transfers are measured, not sampled.
 *  - SnoopFabric: broadcast coherence — every bus transaction probes
 *    every other L1, resident or not, which is where SEESAW's cheap
 *    4-way probes buy the most (§VI-B).
 *
 * CoherenceKind::None builds no fabric at all: the cores share only
 * the LLC. Single-core runs keep the paper's stochastic probe load
 * instead (coherence/probe_engine.hh): the engine drives a ProbeEngine
 * directly so the cores=1 hot path is unchanged.
 */

#ifndef SEESAW_COHERENCE_FABRIC_HH
#define SEESAW_COHERENCE_FABRIC_HH

#include <cstdint>
#include <vector>

#include "cache/l1_cache.hh"
#include "cache/set_assoc_cache.hh"
#include "coherence/exact_directory.hh"
#include "model/energy_model.hh"

namespace seesaw {

/** Coherence fabric kind. */
enum class CoherenceKind : std::uint8_t {
    Directory,
    Snoopy,
    /** No coherence traffic at all: single-core runs skip the
     *  synthetic probe load, multi-core runs share only the LLC. */
    None,
};

/** What the fabric did ahead of one local L1 access. */
struct FabricPreAccess
{
    unsigned cycles = 0;        //!< coherence latency (adds to miss)
    bool ownerSupplied = false; //!< a dirty remote owner forwards data
    bool wasHeld = false;       //!< fabric believed the core held it
};

/**
 * Coherence between the private cache hierarchies of N cores.
 *
 * The engine calls preAccess() after translation but before the local
 * L1 lookup (writes must invalidate remote copies first; read misses
 * may be owner-supplied), then postAccess() with the L1's outcome so
 * the fabric can track fills and evictions.
 */
class CoherenceFabric
{
  public:
    virtual ~CoherenceFabric() = default;

    /** Register core @p core's private caches (engine construction). */
    void attachCore(L1Cache *l1, SetAssocCache *l2)
    {
        l1s_.push_back(l1);
        l2s_.push_back(l2);
    }

    virtual FabricPreAccess preAccess(CoreId core, Addr pa,
                                      AccessType type) = 0;

    virtual void postAccess(CoreId core, Addr pa, AccessType type,
                            const L1AccessResult &res,
                            const FabricPreAccess &pre) = 0;

    virtual void resetStats()
    {
        probes_ = probeHits_ = invalidations_ = ownerSupplies_ = 0;
    }

    /** @name Aggregate probe statistics. */
    /// @{
    std::uint64_t probes() const { return probes_; }
    std::uint64_t probeHits() const { return probeHits_; }
    std::uint64_t invalidations() const { return invalidations_; }
    std::uint64_t ownerSupplies() const { return ownerSupplies_; }
    /// @}

    /** The exact directory, or nullptr for non-directory fabrics. */
    virtual ExactDirectory *directory() { return nullptr; }

  protected:
    explicit CoherenceFabric(EnergyModel &energy) : energy_(energy) {}

    /**
     * Probe core @p target's L1 for @p pa: count the probe and its
     * hit, charge the probed cache's lookup width as coherence energy,
     * and on an invalidating hit count the invalidation and drop the
     * private L2 copy too (inclusive-ish fiction).
     * @return The L1's probe outcome.
     */
    L1ProbeResult probeCore(CoreId target, Addr pa, bool invalidating);

    EnergyModel &energy_;
    std::vector<L1Cache *> l1s_;
    std::vector<SetAssocCache *> l2s_;
    std::uint64_t probes_ = 0;
    std::uint64_t probeHits_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t ownerSupplies_ = 0;
};

/**
 * Exact MOESI directory over the attached L1s. Probes pay the probed
 * cache's real lookup width (8-way baseline vs one 4-way partition
 * under SEESAW, §IV-C1) and a directory-indirection round trip.
 */
class DirectoryFabric final : public CoherenceFabric
{
  public:
    /**
     * @param probe_cycles Latency of directory indirection plus the
     *        probe round trip (the engine passes its LLC latency).
     */
    DirectoryFabric(unsigned cores, unsigned probe_cycles,
                    EnergyModel &energy);

    FabricPreAccess preAccess(CoreId core, Addr pa,
                              AccessType type) override;
    void postAccess(CoreId core, Addr pa, AccessType type,
                    const L1AccessResult &res,
                    const FabricPreAccess &pre) override;

    ExactDirectory *directory() override { return &directory_; }

  private:
    ExactDirectory directory_;
    unsigned probeCycles_;

    /** Probe every target L1; @return the added latency. */
    unsigned sendProbes(const ExactDirectory::ProbeList &probes,
                        Addr pa);
};

/**
 * Broadcast (snoopy bus) coherence: every write that cannot complete
 * locally and every read miss is broadcast, probing all other L1s —
 * including the (many) caches that do not hold the line.
 */
class SnoopFabric final : public CoherenceFabric
{
  public:
    SnoopFabric(unsigned cores, unsigned probe_cycles,
                EnergyModel &energy);

    FabricPreAccess preAccess(CoreId core, Addr pa,
                              AccessType type) override;
    void postAccess(CoreId core, Addr pa, AccessType type,
                    const L1AccessResult &res,
                    const FabricPreAccess &pre) override;

  private:
    unsigned cores_;
    unsigned probeCycles_;

    /** Broadcast one transaction; @return the added latency. */
    unsigned broadcast(CoreId requester, Addr pa, bool invalidating,
                       bool &owner_supplied);
};

} // namespace seesaw

#endif // SEESAW_COHERENCE_FABRIC_HH
