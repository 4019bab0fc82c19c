/**
 * @file
 * One core's private slice of the simulated system: the core timing
 * model, its TLB hierarchy and TFT, an L1D of the configured design,
 * the optional L1I, the private L2 (plus an LLC reference — its own at
 * cores=1, the engine's shared one otherwise) and the per-core
 * reference/fetch streams. The engine (sim/multi_config_engine.hh)
 * drives N of these per configuration over a coherence fabric; every
 * per-access phase lives here so cores=1 executes exactly the classic
 * single-core system.
 */

#ifndef SEESAW_SIM_CORE_COMPLEX_HH
#define SEESAW_SIM_CORE_COMPLEX_HH

#include <memory>

#include "cache/baseline_caches.hh"
#include "cache/prefetch/prefetch.hh"
#include "coherence/fabric.hh"
#include "coherence/probe_engine.hh"
#include "model/latency_table.hh"
#include "sim/config.hh"
#include "tlb/tlb_hierarchy.hh"
#include "workload/code_stream.hh"
#include "workload/reference_stream.hh"
#include "workload/trace.hh"
#include "workload/workload_spec.hh"

namespace seesaw {

/**
 * Per-core unit of the engine. Construction mirrors the original
 * single-core System exactly (same component order, same RNG salts on
 * the per-core seed) so that core 0 of a cores=1 engine is
 * bit-identical to the pre-refactor System.
 */
class CoreComplex
{
  public:
    /**
     * @param core_seed This core's decorrelated seed
     *        (SimEngine::coreSeed); equals config.seed for core 0.
     * @param shared_llc Non-null at cores>1: the engine-owned LLC all
     *        complexes share behind their private L2s.
     */
    CoreComplex(const SystemConfig &config, const WorkloadSpec &workload,
                const LatencyTable &latency, const OsMemoryManager &os,
                EnergyModel &energy, Asid asid, Addr heap_base,
                Addr text_base, CoreId core, std::uint64_t core_seed,
                SetAssocCache *shared_llc);
    ~CoreComplex();

    /** Next reference from the trace or the synthetic stream. */
    MemRef nextRef();

    /** Next instruction-fetch line VA (modelInstructionCache only). */
    Addr nextFetchLine() { return code_->nextFetchLine(); }

    /** Account instruction fetches for @p instructions committed. */
    void doInstructionFetches(std::uint64_t instructions);

    /**
     * @name Per-access phases (sim/multi_config_engine.hh).
     *
     * The engine composes these around the TLB lookups: once per
     * access for a single configuration, and interleaved across
     * substrates around the one shared lookup otherwise, so that each
     * substrate's state sequence is bit-identical to a solo run. The engine owns the demand-paging map between them.
     */
    /// @{

    /** Pre-TLB TFT probe state for @p va (-1 when no D-side TFT). */
    int probeDataTft(Addr va);

    /** Pre-TLB I-side TFT probe for @p va (-1 when no I-side TFT). */
    int probeCodeTft(Addr va);

    /**
     * Charge the translation energy/fault costs implied by the *first*
     * TLB lookup of an access: L1-TLB probe energy, L2-TLB energy on an
     * L1 miss, walk energy on a walk, and — when the lookup faulted —
     * the page-fault count and stall (the demand-paging map and the
     * retry lookup are the caller's).
     */
    void chargeTranslation(const TlbLookupResult &tr);

    /** Steps 2-6 of a data access: fabric ordering, L1 access, miss
     *  handling, core timing, TLB penalty. @p tr is the final
     *  (non-faulting) lookup result. */
    bool finishMemoryAccess(const MemRef &ref, const TlbLookupResult &tr,
                            int tft_probe, CoherenceFabric *fabric);

    /** Accrue @p instructions against the 4-instructions-per-line
     *  fetch carry. @return whole fetch lines to perform now. */
    std::uint64_t takeFetchLines(std::uint64_t instructions);

    /** One fetched line's L1I access + miss handling + TLB penalty. */
    void finishFetch(Addr va, const TlbLookupResult &tr, int tft_probe);

    /**
     * Route a 2MB-fill notification to the TFT owning @p va_base (the
     * I-side TFT for text addresses when an L1I is modelled, the
     * D-side TFT otherwise). This is the single superpage hook; a
     * multi-config pass broadcasts it to every substrate's complex.
     */
    void markTftRegion(Addr va_base);

    /** Point the per-access paths at another complex's TLB hierarchy
     *  (the first substrate's, in a multi-config pass). Defaults to
     *  this complex's own. */
    void setActiveTlb(TlbHierarchy *tlb) { activeTlb_ = tlb; }
    TlbHierarchy &activeTlb() { return *activeTlb_; }

    /// @}

    /** Zero every measured per-core counter (after warmup). */
    void resetMeasurement();

    /** @name Component access. */
    /// @{
    TlbHierarchy &tlb() { return *tlb_; }
    L1Cache &l1() { return *l1_; }
    L1Cache *l1i() { return l1i_.get(); }
    /** nullptr unless an SEESAW kind (cached; hot path). */
    SeesawCache *seesawL1() { return seesawD_; }
    SeesawCache *seesawL1i() { return seesawI_; }
    CpuModel &cpu() { return *cpu_; }
    OuterHierarchy &outer() { return *outer_; }
    /** The synthetic probe engine (cores=1 only), or nullptr. */
    ProbeEngine *probeEngine() { return probes_.get(); }
    CoreId core() const { return core_; }
    std::uint64_t pageFaults() const { return pageFaults_; }
    /// @}

    /** @name L1D prefetch engine counters (zero when Kind::None). */
    /// @{
    std::uint64_t prefetchIssued() const { return prefetchIssued_; }
    std::uint64_t prefetchUseful() const { return prefetchUseful_; }
    std::uint64_t prefetchLate() const { return prefetchLate_; }
    std::uint64_t prefetchIllegalCrossing() const
    {
        return prefetchIllegalCrossing_;
    }
    /// @}

    /** Instructions retired by this core, including warmup (drives the
     *  per-core OS-event schedule). The engine advances the clocks of
     *  its first substrate's complexes only. */
    std::uint64_t retiredTotal_ = 0;

    /** Next context-switch point in retiredTotal_ terms. */
    std::uint64_t nextContextSwitch_ = 0;

  private:
    const SystemConfig &config_;
    const WorkloadSpec &workload_;
    /** Read-only: OS events reach a complex through the engine. */
    const OsMemoryManager &os_;
    EnergyModel &energy_;

    std::unique_ptr<TlbHierarchy> tlb_;
    TlbHierarchy *activeTlb_ = nullptr; //!< tlb_ unless re-pointed
    std::unique_ptr<L1Cache> l1_;
    std::unique_ptr<OuterHierarchy> outer_;
    std::unique_ptr<CpuModel> cpu_;
    std::unique_ptr<ProbeEngine> probes_;
    std::unique_ptr<ReferenceStream> stream_;
    std::unique_ptr<TraceReader> trace_; //!< replaces stream_ if set

    // Optional L1I application (§V).
    std::unique_ptr<L1Cache> l1i_;
    std::unique_ptr<CodeStream> code_;

    /** Typed views of l1_/l1i_ when they are SEESAW caches, set at
     *  construction: the per-access and per-fetch paths call SEESAW
     *  directly and reach its TFT without a cast. */
    SeesawCache *seesawD_ = nullptr;
    SeesawCache *seesawI_ = nullptr;

    Addr textBase_ = 0;
    double fetchCarry_ = 0.0;

    Asid asid_ = 0;
    CoreId core_ = 0;
    std::uint64_t pageFaults_ = 0;

    /** L1D prefetch engine (nullptr when PrefetchKind::None). */
    std::unique_ptr<PrefetchEngine> prefetcher_;
    std::vector<Addr> pfCandidates_; //!< scratch (avoids per-access
                                     //!< allocation)
    std::uint64_t prefetchIssued_ = 0;
    std::uint64_t prefetchUseful_ = 0;
    std::uint64_t prefetchLate_ = 0;
    std::uint64_t prefetchIllegalCrossing_ = 0;

    /**
     * Train the prefetcher on one demand access and issue the legal
     * candidates as demand-like read fills tagged prefetched.
     * Candidates outside the triggering translation's page are dropped
     * (a different page could live in a different SEESAW partition and
     * would need its own translation). @return any fill issued (a
     * coherence transition the caller must report).
     */
    bool issuePrefetches(const MemRef &ref, const TlbLookupResult &tr,
                         bool demand_miss, CoherenceFabric *fabric);
};

} // namespace seesaw

#endif // SEESAW_SIM_CORE_COMPLEX_HH
