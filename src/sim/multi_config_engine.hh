/**
 * @file
 * The simulation engine: a single trace pass drives N per-config
 * substrates (L1/L2 tag stores, TFT, way predictor, energy and stat
 * groups) over one config-invariant front end (workload streams, page
 * table, translation cache, OS memory manager, per-core RNGs and TLB
 * hierarchies). OS events — promotion, splinter, unmap, context switch —
 * broadcast to every substrate, and each substrate's state sequence is
 * bit-identical to running its configuration alone (the DEW structure,
 * arXiv 1506.03181, applied to the SEESAW design space). One
 * configuration is the N=1 case; SimEngine (sim/sim_engine.hh) is that
 * case's single-config view.
 *
 * What is shared and what forks:
 *  - Shared, exactly once per pass: the OS memory manager (buddy
 *    allocator, page tables, translation cache, khugepaged), memhog
 *    fragmentation, the per-core reference/fetch streams and retire
 *    clocks (drawn from the first substrate's complexes), the OS-event
 *    RNG and schedule (keyed on retired instructions, which every
 *    substrate agrees on by construction), and one TLB hierarchy per
 *    core — the first substrate's, which every substrate looks up
 *    through, so all of them see one translation per access.
 *  - Forked per substrate: L1D/L1I tag stores and TFTs, way
 *    predictors, private L2s + LLC, the coherence fabric, CPU timing,
 *    the energy model, and the invariant auditor (per-substrate audit
 *    contexts, so a desynced substrate is caught individually).
 *
 * Front-end compatibility (frontEndKey) is the contract: configs in
 * one pass must agree on every field that feeds the shared state, TLB
 * geometry and replacement policy included.
 */

#ifndef SEESAW_SIM_MULTI_CONFIG_ENGINE_HH
#define SEESAW_SIM_MULTI_CONFIG_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "coherence/fabric.hh"
#include "sim/core_complex.hh"

namespace seesaw::check {
class InvariantAuditor;
} // namespace seesaw::check

namespace seesaw {

/**
 * Aggregate one system's per-core stats into a RunResult — the one
 * sanctioned place for string-keyed stat reads. The engine calls it
 * once per substrate.
 */
RunResult collectRunResults(const SystemConfig &config,
                            const WorkloadSpec &workload,
                            const std::vector<CoreComplex *> &complexes,
                            EnergyModel &energy,
                            CoherenceFabric *fabric,
                            const OsMemoryManager &os, Asid asid,
                            Cycles max_cycles);

/**
 * Drives N compatible SystemConfigs through one trace pass.
 * Construct with the configs (asserts pairwise front-end
 * compatibility), then run() once; results arrive in config order.
 */
class MultiConfigEngine
{
  public:
    MultiConfigEngine(std::vector<SystemConfig> configs,
                      const WorkloadSpec &workload);
    ~MultiConfigEngine();

    /** Execute the shared per-core instruction budget once; @return
     *  one RunResult per config, in constructor order. */
    std::vector<RunResult> run();

    /** Whether two configs can share one front end (and therefore one
     *  pass): every config-invariant field must match. */
    static bool compatibleFrontEnds(const SystemConfig &a,
                                    const SystemConfig &b);

    /** Exact bytes of the front-end fields (sim/config_fields.hh) —
     *  the harness groups cells by (workload, this key). */
    static std::string frontEndKey(const SystemConfig &config);

    /** @name Component access (tests / advanced drivers). */
    /// @{
    unsigned substrates() const
    {
        return static_cast<unsigned>(substrates_.size());
    }
    unsigned cores() const { return configs_.front().cores; }
    const SystemConfig &config(unsigned substrate) const
    {
        return configs_[substrate];
    }
    CoreComplex &complex(unsigned substrate, unsigned core = 0)
    {
        return *substrates_[substrate].complexes[core];
    }
    /** The TLB hierarchy serving @p substrate on @p core: the first
     *  substrate's, shared by all. */
    TlbHierarchy &tlb(unsigned substrate, unsigned core = 0)
    {
        return complex(substrate, core).activeTlb();
    }
    EnergyModel &energy(unsigned substrate)
    {
        return *substrates_[substrate].energy;
    }
    /** The coherence fabric, or nullptr when none is modelled (cores=1,
     *  or CoherenceKind::None). */
    CoherenceFabric *fabric(unsigned substrate)
    {
        return substrates_[substrate].fabric.get();
    }
    /** The exact directory, or nullptr unless a cores>1 directory
     *  fabric is active. */
    ExactDirectory *directory(unsigned substrate)
    {
        return substrates_[substrate].directory;
    }
    /** The invariant auditor, or nullptr when audits are off. */
    check::InvariantAuditor *auditor(unsigned substrate)
    {
        return substrates_[substrate].auditor.get();
    }
    OsMemoryManager &os() { return *os_; }
    Asid asid() const { return asid_; }
    /// @}

    /**
     * Unmap [va_base, va_base+bytes) and broadcast the shootdown to
     * every substrate: invlpg on each core's shared TLB, plus TFT
     * region invalidations in every SEESAW L1D/L1I. The run loop's
     * promotion/splinter events use the same broadcast structure; this
     * entry point is for OS-driven unmaps (and their tests).
     */
    void unmapBroadcast(Addr va_base, std::uint64_t bytes);

  private:
    /** Everything that forks per configuration. */
    struct Substrate
    {
        const SystemConfig *config = nullptr;
        std::unique_ptr<EnergyModel> energy;
        std::unique_ptr<SetAssocCache> sharedLlc;
        std::vector<std::unique_ptr<CoreComplex>> complexes;
        std::unique_ptr<CoherenceFabric> fabric;
        ExactDirectory *directory = nullptr;
        std::unique_ptr<check::InvariantAuditor> auditor;
    };

    /** Core @p c's front end: the first substrate's complex, whose
     *  streams, retire clocks and TLB hierarchy every substrate
     *  follows. */
    CoreComplex &lead(CoreId c) { return *substrates_[0].complexes[c]; }

    /** Advance core @p c by one reference, retiring at most @p room
     *  instructions. @return instructions retired. stepOne is the
     *  fused single-substrate composition; step interleaves the same
     *  phases across substrates. */
    std::uint64_t stepOne(CoreId c, std::uint64_t room);
    std::uint64_t step(CoreId c, std::uint64_t room);

    /** Demand-page the 2MB chunk around @p va (Linux fault-around, so
     *  THP can back it). */
    void demandMap(Addr va);

    void runLoop(std::uint64_t per_core_budget);
    void resetMeasurement();
    void osTick(CoreId c);
    void applyPromotion(const PromotionEvent &event);
    void applySplinter(const SplinterEvent &event);
    void setupAuditor(Substrate &sub);

    WorkloadSpec workload_;
    LatencyTable latency_;
    std::vector<SystemConfig> configs_;
    Rng eventRng_;

    std::unique_ptr<OsMemoryManager> os_;
    Asid asid_ = 0;

    std::vector<Substrate> substrates_;

    std::uint64_t nextPromotion_ = 0;
    std::uint64_t nextSplinter_ = 0;

    /** @name Per-step scratch (sized once; the access loop is hot). */
    /// @{
    std::vector<int> dProbe_, iProbe_;
    std::vector<char> transitions_;
    /// @}
};

} // namespace seesaw

#endif // SEESAW_SIM_MULTI_CONFIG_ENGINE_HH
