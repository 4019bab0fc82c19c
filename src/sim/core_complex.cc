#include "sim/core_complex.hh"

#include "cache/sipt_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace seesaw {

namespace {

/** Table II: the split L1I is 32KB, 8-way, whatever its design. */
constexpr std::uint64_t kL1iSizeBytes = 32 * 1024;
constexpr unsigned kL1iAssoc = 8;

} // namespace

CoreComplex::CoreComplex(const SystemConfig &config,
                         const WorkloadSpec &workload,
                         const LatencyTable &latency,
                         const OsMemoryManager &os, EnergyModel &energy,
                         Asid asid, Addr heap_base, Addr text_base,
                         CoreId core, std::uint64_t core_seed,
                         SetAssocCache *shared_llc)
    : config_(config), workload_(workload), os_(os), energy_(energy),
      asid_(asid), core_(core)
{
    // --- TLBs (preset follows the core model, Table II; optionally a
    // unified fully-associative L1, which SEESAW supports equally).
    TlbHierarchyParams tlb_params =
        config_.coreKind == CoreKind::InOrder
            ? TlbHierarchyParams::atom()
            : TlbHierarchyParams::sandybridge();
    if (config_.unifiedL1Tlb) {
        SEESAW_ASSERT(config_.unifiedL1TlbEntries > 0,
                      "unified TLB needs entries");
        tlb_params.unifiedL1Entries = config_.unifiedL1TlbEntries;
    }
    // Replacement seeds decorrelate per structure AND per core: the
    // hierarchy salts each level on top of this per-core base. Every
    // substrate of a multi-config pass shares the first substrate's
    // hierarchy, built here with this same seed.
    tlb_params.replacement =
        withSeedSalt(config_.replacement, core_seed ^ 0x71bULL);
    tlb_ = std::make_unique<TlbHierarchy>(tlb_params, os_.pageTable());
    activeTlb_ = tlb_.get();

    // --- L1 cache. All designs share the D-side replacement seed
    // derivation (SeesawCache further salts its TFT internally).
    const ReplacementParams l1d_replacement =
        withSeedSalt(config_.replacement, core_seed ^ 0x5e1ecULL);
    switch (config_.l1Kind) {
      case L1Kind::ViptBaseline:
      case L1Kind::ViptWayPredicted:
      case L1Kind::Pipt: {
        BaselineL1Config c;
        c.sizeBytes = config_.l1SizeBytes;
        c.assoc = config_.l1Assoc;
        c.wayPrediction =
            config_.l1Kind == L1Kind::ViptWayPredicted;
        c.replacement = l1d_replacement;
        // PIPT is the same full-set cache with the L1 TLB serialised
        // in front of it (Fig 14).
        const unsigned hit_cycles =
            config_.l1Kind == L1Kind::Pipt
                ? latency.piptCycles(c.sizeBytes, c.assoc,
                                     config_.freqGhz,
                                     config_.piptTlbCycles)
                : latency.basePageCycles(c.sizeBytes, c.assoc,
                                         config_.freqGhz);
        l1_ = std::make_unique<ViptCache>(c, hit_cycles);
        break;
      }
      case L1Kind::Sipt: {
        SiptConfig c;
        c.sizeBytes = config_.l1SizeBytes;
        c.assoc = config_.siptAssoc;
        c.freqGhz = config_.freqGhz;
        c.replacement = l1d_replacement;
        l1_ = std::make_unique<SiptCache>(c, latency);
        break;
      }
      case L1Kind::Seesaw:
      case L1Kind::SeesawWayPredicted: {
        SeesawConfig c;
        c.sizeBytes = config_.l1SizeBytes;
        c.assoc = config_.l1Assoc;
        c.partitionWays = config_.partitionWays;
        c.freqGhz = config_.freqGhz;
        c.policy = config_.policy;
        c.tftEntries = config_.tftEntries;
        c.tftAssoc = config_.tftAssoc;
        c.wayPrediction =
            config_.l1Kind == L1Kind::SeesawWayPredicted;
        c.replacement = l1d_replacement;
        auto cache = std::make_unique<SeesawCache>(c, latency);
        seesawD_ = cache.get();
        l1_ = std::move(cache);
        break;
      }
    }

    prefetcher_ = PrefetchEngine::create(config_.prefetch,
                                         l1_->tags().lineBytes());

    outer_ = std::make_unique<OuterHierarchy>(config_.outer,
                                              config_.freqGhz,
                                              shared_llc);

    // --- Core model (concrete CpuModel: the retire fast path branches
    // on the kind instead of virtual-dispatching).
    cpu_ = std::make_unique<CpuModel>(
        config_.coreKind, config_.coreKind == CoreKind::InOrder
                              ? CpuParams::atom()
                              : CpuParams::sandybridge());

    // --- Coherence probe load. Single-core runs model coherence as
    // the paper's stochastic probe stream; multi-core runs get the
    // real fabric (owned by the engine) instead.
    if (config_.cores == 1 && config_.fabric != CoherenceKind::None) {
        ProbeEngineParams pe;
        pe.systemProbesPerKiloInstr =
            workload_.systemProbesPerKiloInstr;
        pe.remoteThreads =
            workload_.threads > 0 ? workload_.threads - 1 : 0;
        pe.sharedFraction = workload_.sharedFraction;
        pe.fabric = config_.fabric;
        pe.seed = core_seed ^ 0x9097eULL;
        probes_ = std::make_unique<ProbeEngine>(pe, *l1_, energy_);
    }

    stream_ = std::make_unique<ReferenceStream>(
        workload_, heap_base, core_seed ^ 0x57ea0ULL, core_);
    if (!config_.tracePath.empty())
        trace_ = std::make_unique<TraceReader>(config_.tracePath);

    // --- Optional L1 instruction cache (§V). The engine maps the
    // text segment (shared by all cores) before building complexes.
    if (config_.modelInstructionCache) {
        textBase_ = text_base;
        CodeStreamParams code_params;
        code_params.codeBytes = workload_.codeFootprintBytes;
        code_ = std::make_unique<CodeStream>(
            code_params, textBase_, core_seed ^ 0xc0deULL);

        // Prefill the LLC with the hot-text prefix (hot/cold-split
        // layout puts the hot functions at the front).
        const Addr hot_text_end =
            textBase_ + std::min<std::uint64_t>(
                            workload_.codeFootprintBytes, 4ULL << 20);
        for (Addr va = textBase_; va < hot_text_end; va += 64) {
            if (auto t = os_.translate(asid_, va))
                outer_->prefill(t->translate(va));
        }

        const bool seesaw_icache =
            config_.icacheKind == SystemConfig::ICacheKind::Seesaw ||
            (config_.icacheKind ==
                 SystemConfig::ICacheKind::FollowL1 &&
             isSeesawKind(config_.l1Kind));
        if (seesaw_icache) {
            SeesawConfig ic;
            ic.sizeBytes = kL1iSizeBytes;
            ic.assoc = kL1iAssoc;
            ic.partitionWays = config_.partitionWays;
            ic.freqGhz = config_.freqGhz;
            ic.policy = config_.policy;
            ic.tftEntries = config_.tftEntries;
            ic.tftAssoc = config_.tftAssoc;
            ic.replacement = withSeedSalt(config_.replacement,
                                          core_seed ^ 0x15e1ecULL);
            auto icache = std::make_unique<SeesawCache>(ic, latency);
            seesawI_ = icache.get();
            l1i_ = std::move(icache);
        } else {
            BaselineL1Config ic;
            ic.sizeBytes = kL1iSizeBytes;
            ic.assoc = kL1iAssoc;
            ic.replacement = withSeedSalt(config_.replacement,
                                          core_seed ^ 0x15e1ecULL);
            l1i_ = std::make_unique<ViptCache>(
                ic, latency.basePageCycles(kL1iSizeBytes, kL1iAssoc,
                                           config_.freqGhz));
        }
    }

    // Wire the superpage hook into the TLB hierarchy: every 2MB L1 TLB
    // fill marks the region in the owning side's TFT (Fig 5;
    // markTftRegion routes I- vs D-side). A multi-config pass replaces
    // it with a hook that broadcasts to every substrate's complex.
    if (seesawD_ || seesawI_) {
        tlb_->setOn2MBFill(
            [this](Asid, Addr va_base) { markTftRegion(va_base); });
    }

    // Steady-state warmup: prefill the LLC with the stream's hot
    // ranges so measurement does not start from an unrealistically
    // cold outer hierarchy (the paper's traces span 10B instructions).
    for (const auto &[begin, end] : stream_->hotRanges()) {
        for (Addr va = begin; va < end; va += 64) {
            if (auto t = os_.translate(asid_, va))
                outer_->prefill(t->translate(va));
        }
    }

    nextContextSwitch_ = config_.contextSwitchInterval;
}

CoreComplex::~CoreComplex() = default;

MemRef
CoreComplex::nextRef()
{
    if (!trace_) {
        return stream_->next();
    }
    if (auto ref = trace_->next())
        return *ref;
    // Loop the trace when it is shorter than the budget.
    trace_ = std::make_unique<TraceReader>(config_.tracePath);
    auto ref = trace_->next();
    SEESAW_ASSERT(ref, "empty trace file: ", config_.tracePath);
    return *ref;
}

int
CoreComplex::probeDataTft(Addr va)
{
    // Probe the TFT with its pre-TLB state: hardware reads the TFT and
    // the L1 TLBs in parallel, and a 2MB TLB hit may refresh the very
    // entry being probed — the refresh must not be visible to this
    // access.
    if (SeesawCache *cache = seesawD_)
        return cache->tft().lookup(va) ? 1 : 0;
    return -1;
}

int
CoreComplex::probeCodeTft(Addr va)
{
    if (seesawI_)
        return seesawI_->tft().lookup(va) ? 1 : 0;
    return -1;
}

void
CoreComplex::chargeTranslation(const TlbLookupResult &tr)
{
    energy_.addL1TlbLookup();
    if (!tr.l1Hit)
        energy_.addL2TlbLookup();
    if (tr.walked)
        energy_.addPageWalk();
    if (tr.fault) {
        ++pageFaults_;
        cpu_->addStallCycles(2000);
    }
}

void
CoreComplex::markTftRegion(Addr va_base)
{
    // The single TLB hierarchy serves both sides; route the superpage
    // notification to the TFT of the side the address belongs to (real
    // split ITLB/DTLBs would do this naturally). A VIPT L1I keeps code
    // regions out of the D-side TFT.
    if (l1i_ && va_base >= textBase_) {
        if (seesawI_)
            seesawI_->tft().markRegion(va_base);
        return;
    }
    if (seesawD_)
        seesawD_->tft().markRegion(va_base);
}

std::uint64_t
CoreComplex::takeFetchLines(std::uint64_t instructions)
{
    if (!l1i_)
        return 0;
    // 16-byte fetch groups: one 64B line fetch per ~4 instructions.
    fetchCarry_ += static_cast<double>(instructions) / 4.0;
    auto fetches = static_cast<std::uint64_t>(fetchCarry_);
    fetchCarry_ -= static_cast<double>(fetches);
    return fetches;
}

void
CoreComplex::finishFetch(Addr va, const TlbLookupResult &tr,
                         int tft_probe)
{
    const Addr pa = tr.translation.translate(va);
    L1Access req{va, pa, tr.translation.size, AccessType::Read,
                 tft_probe};
    const L1AccessResult res =
        seesawI_ ? seesawI_->access(req) : l1i_->access(req);
    if (seesawI_)
        energy_.addTftLookup();
    energy_.addL1Lookup(l1i_->tags().sizeBytes(), l1i_->tags().assoc(),
                        res.waysRead, false);

    if (!res.hit) {
        const OuterAccessResult outer =
            outer_->access(pa, AccessType::Read);
        energy_.addL2Access();
        if (outer.llcAccessed)
            energy_.addLlcAccess();
        if (outer.dramAccessed)
            energy_.addDramAccess();
        energy_.addLineInstall(res.installWays);
        // Front-end refill: the decode queue hides part of it.
        cpu_->addStallCycles(static_cast<Cycles>(outer.cycles * 0.4));
    }
    if (tr.penaltyCycles)
        cpu_->addStallCycles(tr.penaltyCycles / 2);
}

void
CoreComplex::doInstructionFetches(std::uint64_t instructions)
{
    std::uint64_t fetches = takeFetchLines(instructions);
    while (fetches-- > 0) {
        const Addr va = code_->nextFetchLine();
        const int tft_probe = probeCodeTft(va);
        const TlbLookupResult tr = activeTlb_->lookup(asid_, va);
        chargeTranslation(tr);
        SEESAW_ASSERT(!tr.fault, "text segment must be premapped");
        finishFetch(va, tr, tft_probe);
    }
}

bool
CoreComplex::finishMemoryAccess(const MemRef &ref,
                                const TlbLookupResult &tr,
                                int tft_probe, CoherenceFabric *fabric)
{
    const Addr pa = tr.translation.translate(ref.va);
    const PageSize page_size = tr.translation.size;

    // 2. Coherence ordering point: writes invalidate remote copies
    //    before the local access; read misses may be owner-supplied.
    FabricPreAccess pre;
    if (fabric)
        pre = fabric->preAccess(core_, pa, ref.type);

    // 3. L1 access (direct call into the final SeesawCache class when
    // the design is SEESAW; virtual dispatch otherwise).
    L1Access req{ref.va, pa, page_size, ref.type, tft_probe};
    const L1AccessResult res =
        seesawD_ ? seesawD_->access(req) : l1_->access(req);

    if (seesawD_)
        energy_.addTftLookup();
    if (res.wpUsed)
        energy_.addWayPredictorLookup();
    energy_.addL1Lookup(l1_->tags().sizeBytes(), l1_->tags().assoc(),
                        res.waysRead, /*coherent=*/false);
    if (probes_)
        probes_->noteResident(pa);

    // 4. Miss handling in the outer hierarchy.
    unsigned miss_penalty = pre.cycles;
    if (!res.hit) {
        if (pre.ownerSupplied) {
            // Cache-to-cache transfer: a dirty remote owner forwards
            // the line, so the LLC/DRAM data arrays are never read.
            miss_penalty += outer_->l2Cycles() + outer_->llcCycles();
            energy_.addL2Access();
        } else {
            const OuterAccessResult outer =
                outer_->access(pa, ref.type);
            miss_penalty += outer.cycles;
            energy_.addL2Access();
            if (outer.llcAccessed)
                energy_.addLlcAccess();
            if (outer.dramAccessed)
                energy_.addDramAccess();
        }
        energy_.addLineInstall(res.installWays);
        if (res.eviction.valid && res.eviction.dirty()) {
            outer_->writeback(res.eviction.lineAddr *
                              l1_->tags().lineBytes());
            energy_.addL2Access();
        }
    } else if (res.wasPrefetched) {
        // First demand hit on a line the prefetcher installed.
        ++prefetchUseful_;
    }

    if (fabric)
        fabric->postAccess(core_, pa, ref.type, res, pre);

    // 5. Core timing.
    MemTiming timing;
    timing.hit = res.hit;
    timing.missPenalty = miss_penalty;
    timing.lateDiscovery = res.lateDiscovery || !res.hit;
    if (config_.coreKind == CoreKind::InOrder) {
        // In-order pipelines have no speculative wakeup: data is
        // consumed whenever it arrives, so the L1's actual latency is
        // the exposed latency (this is why SEESAW helps in-order cores
        // more, Fig 9).
        timing.lookupCycles = res.latencyCycles;
        timing.assumedCycles = res.latencyCycles;
    } else {
        // The out-of-order scheduler speculatively wakes dependents at
        // an assumed latency (§IV-B3): SEESAW assumes the fast hit
        // unless the superpage-TLB occupancy counter says superpages
        // are scarce; other designs assume their base hit time.
        unsigned assumed = l1_->baseHitCycles();
        if (isSeesawKind(config_.l1Kind)) {
            const bool assume_fast =
                !config_.schedulerCounterPolicy ||
                activeTlb_->superpagesAmple();
            assumed = assume_fast ? l1_->fastHitCycles()
                                  : l1_->baseHitCycles();
        } else if (config_.l1Kind == L1Kind::Sipt) {
            // SIPT is speculation-first by construction: the scheduler
            // always assumes the speculative index was right and
            // replays otherwise.
            assumed = l1_->fastHitCycles();
        }
        // A hit that returns earlier than the scheduled wakeup cannot
        // retire dependents early: the effective latency is the
        // assumed one. A later return forces a squash (charged by the
        // core model).
        timing.lookupCycles = std::max(res.latencyCycles, assumed);
        timing.assumedCycles = assumed;
    }
    cpu_->retireMemory(timing);

    // 6. TLB miss penalties serialise before the tag check only beyond
    //    the L1 TLB (VIPT hides the L1 probe).
    if (tr.penaltyCycles)
        cpu_->addStallCycles(tr.penaltyCycles);

    // 7. Prefetch: train on the demand access, then issue the legal
    //    candidates as demand-like fills (off the critical path — no
    //    core timing impact beyond the energy/occupancy effects).
    bool prefetched = false;
    if (prefetcher_)
        prefetched = issuePrefetches(ref, tr, !res.hit, fabric);

    return ref.type == AccessType::Write || !res.hit || prefetched;
}

bool
CoreComplex::issuePrefetches(const MemRef &ref,
                             const TlbLookupResult &tr,
                             bool demand_miss, CoherenceFabric *fabric)
{
    pfCandidates_.clear();
    prefetcher_->observe(ref.va, demand_miss, pfCandidates_);
    if (pfCandidates_.empty())
        return false;

    // Legality: a candidate is issuable only inside the page backing
    // the triggering access — its PA comes from the same translation,
    // so the fill lands in the partition that translation names. A
    // candidate beyond the page would need its own TLB lookup and
    // could map to a different partition; drop it (counted).
    const Addr page_base = tr.translation.vaBase;
    const Addr page_end = page_base + pageBytes(tr.translation.size);

    bool issued = false;
    for (const Addr pf_va : pfCandidates_) {
        if (pf_va < page_base || pf_va >= page_end) {
            ++prefetchIllegalCrossing_;
            continue;
        }
        const Addr pf_pa = tr.translation.translate(pf_va);
        if (l1_->tags().peek(pf_pa).hit) {
            // Already resident: the prefetch would have had to be
            // issued earlier to help.
            ++prefetchLate_;
            continue;
        }

        // Issue like a demand read miss: coherence ordering, outer
        // fetch, L1 install (tagged prefetched), eviction writeback.
        FabricPreAccess pre;
        if (fabric)
            pre = fabric->preAccess(core_, pf_pa, AccessType::Read);
        ++prefetchIssued_;
        if (pre.ownerSupplied) {
            energy_.addL2Access();
        } else {
            const OuterAccessResult outer =
                outer_->access(pf_pa, AccessType::Read);
            energy_.addL2Access();
            if (outer.llcAccessed)
                energy_.addLlcAccess();
            if (outer.dramAccessed)
                energy_.addDramAccess();
        }
        L1AccessResult pf_res;
        pf_res.hit = false;
        pf_res.eviction =
            l1_->prefetchFill(pf_pa, tr.translation.size);
        energy_.addLineInstall(1);
        if (pf_res.eviction.valid && pf_res.eviction.dirty()) {
            outer_->writeback(pf_res.eviction.lineAddr *
                              l1_->tags().lineBytes());
            energy_.addL2Access();
        }
        if (fabric)
            fabric->postAccess(core_, pf_pa, AccessType::Read, pf_res,
                               pre);
        if (probes_)
            probes_->noteResident(pf_pa);
        issued = true;
    }
    return issued;
}

void
CoreComplex::resetMeasurement()
{
    cpu_->resetCounters();
    l1_->stats().resetAll();
    if (l1i_)
        l1i_->stats().resetAll();
    outer_->stats().resetAll();
    if (probes_)
        probes_->stats().resetAll();
    if (SeesawCache *cache = seesawD_)
        cache->tft().stats().resetAll();
    pageFaults_ = 0;
    prefetchIssued_ = 0;
    prefetchUseful_ = 0;
    prefetchLate_ = 0;
    prefetchIllegalCrossing_ = 0;
}

} // namespace seesaw
