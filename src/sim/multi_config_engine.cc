#include "sim/multi_config_engine.hh"

#include <algorithm>

#include "check/cache_audits.hh"
#include "check/coherence_audits.hh"
#include "check/invariant_auditor.hh"
#include "check/mem_audits.hh"
#include "check/tlb_audits.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "sim/config_fields.hh"
#include "sim/sim_engine.hh"

namespace seesaw {

namespace {

/** The TLB geometry a config implies: substrates matching on this
 *  share one hierarchy per core. */
std::string
tlbGeometryKey(const SystemConfig &config)
{
    FieldWriter w;
    writeTlbGeometryFields(config, w);
    return w.bytes();
}

constexpr Addr k2MB = 2ULL * 1024 * 1024;

} // namespace

std::string
MultiConfigEngine::frontEndKey(const SystemConfig &config)
{
    FieldWriter w;
    writeFrontEndFields(config, w);
    return w.bytes();
}

bool
MultiConfigEngine::compatibleFrontEnds(const SystemConfig &a,
                                       const SystemConfig &b)
{
    return frontEndKey(a) == frontEndKey(b);
}

MultiConfigEngine::MultiConfigEngine(std::vector<SystemConfig> configs,
                                     const WorkloadSpec &workload)
    : workload_(workload), latency_(TechNode::Intel22),
      configs_(std::move(configs)),
      eventRng_((configs_.empty() ? 0 : configs_.front().seed) ^
                0xe7e27ULL)
{
    SEESAW_ASSERT(!configs_.empty(), "the engine needs at least one config");
    const SystemConfig &front = configs_.front();
    SEESAW_ASSERT(front.cores >= 1 && front.cores <= 64,
                  "1-64 cores supported");
    for (std::size_t i = 1; i < configs_.size(); ++i) {
        SEESAW_ASSERT(compatibleFrontEnds(front, configs_[i]),
                      "incompatible front ends in one pass: config ", i,
                      " differs from config 0");
    }

    // --- Shared front end: OS and physical memory first. Fragment
    // first (long-uptime host), then map the workload's footprint.
    OsParams os_params = front.os;
    os_params.seed ^= front.seed;
    os_ = std::make_unique<OsMemoryManager>(os_params);
    memhog_ = std::make_unique<Memhog>(*os_, front.memhog);
    memhog_->consume(front.memhogFraction);

    asid_ = os_->createProcess();
    const Addr heap_base = Addr{1} << 40; // 1GB-aligned heap base
    if (front.useOneGbHeap) {
        // §IV generalisation: back the heap with 1GB pages where the
        // allocator can find gigabyte contiguity, THP elsewhere.
        const Addr gb = Addr{1} << 30;
        Addr off = 0;
        while (off < workload_.footprintBytes &&
               os_->mapOneGbPage(asid_, heap_base + off)) {
            off += gb;
        }
        if (off < workload_.footprintBytes) {
            os_->mapAnonymous(asid_, heap_base + off,
                              workload_.footprintBytes - off,
                              workload_.thpEligibleFraction);
        }
    } else {
        os_->mapAnonymous(asid_, heap_base, workload_.footprintBytes,
                          workload_.thpEligibleFraction);
    }
    // The text segment is shared by all cores; map it once before the
    // complexes build their fetch streams.
    Addr text_base = 0;
    if (front.modelInstructionCache) {
        text_base = Addr{2} << 40;
        os_->mapAnonymous(asid_, text_base,
                          workload_.codeFootprintBytes,
                          front.codeThpEligibleFraction);
    }

    // --- Substrates, in config order. Every complex builds its own TLB
    // hierarchy; the first substrate of each TLB geometry is its
    // group's exemplar, and later members are re-pointed at the
    // exemplar's hierarchy.
    std::vector<std::string> tlb_keys;
    substrates_.reserve(configs_.size());
    for (std::size_t i = 0; i < configs_.size(); ++i) {
        Substrate &sub = substrates_.emplace_back();
        sub.config = &configs_[i];
        const std::string key = tlbGeometryKey(*sub.config);
        const auto it = std::find(tlb_keys.begin(), tlb_keys.end(), key);
        sub.tlbGroup = static_cast<std::size_t>(it - tlb_keys.begin());
        if (it == tlb_keys.end()) {
            tlb_keys.push_back(key);
            tlbExemplars_.push_back(i);
        }
        sub.energy = std::make_unique<EnergyModel>(latency_.sram());
        // Multi-core systems share one LLC behind the private L2s; a
        // single-core complex keeps its private LLC.
        if (front.cores > 1) {
            sub.sharedLlc = std::make_unique<SetAssocCache>(
                sub.config->outer.llcSizeBytes,
                sub.config->outer.llcAssoc);
        }
        for (unsigned c = 0; c < front.cores; ++c) {
            sub.complexes.push_back(std::make_unique<CoreComplex>(
                *sub.config, workload_, latency_, *os_, *sub.energy,
                asid_, heap_base, text_base, static_cast<CoreId>(c),
                SimEngine::coreSeed(front.seed, c),
                sub.sharedLlc.get()));
            sub.complexes.back()->setActiveTlb(
                &groupTlb(sub.tlbGroup, static_cast<CoreId>(c)));
        }
        if (front.cores > 1) {
            // Probe latency models directory/bus indirection plus the
            // remote round trip — the engine charges its LLC latency.
            const unsigned probe_cycles =
                sub.complexes[0]->outer().llcCycles();
            switch (sub.config->fabric) {
              case CoherenceKind::Directory:
                sub.fabric = std::make_unique<DirectoryFabric>(
                    front.cores, probe_cycles, *sub.energy);
                break;
              case CoherenceKind::Snoopy:
                sub.fabric = std::make_unique<SnoopFabric>(
                    front.cores, probe_cycles, *sub.energy);
                break;
              case CoherenceKind::None:
                sub.fabric = std::make_unique<NullFabric>();
                break;
            }
            sub.directory = sub.fabric->directory();
            for (auto &cx : sub.complexes)
                sub.fabric->attachCore(&cx->l1(), &cx->outer().l2());
        }
        setupAuditor(sub);
    }

    // --- Group superpage hooks: a 2MB fill in a shared TLB must mark
    // the TFT of *every* member substrate, each routing I- vs D-side
    // by its own shape (bit-identical to each member's solo hook). A
    // group of one keeps its complex's own hook.
    for (std::size_t g = 0; g < tlbExemplars_.size(); ++g) {
        for (unsigned c = 0; c < front.cores; ++c) {
            std::vector<CoreComplex *> members;
            for (Substrate &sub : substrates_) {
                if (sub.tlbGroup == g)
                    members.push_back(sub.complexes[c].get());
            }
            if (members.size() < 2)
                continue;
            TlbHierarchy &tlb = groupTlb(g, static_cast<CoreId>(c));
            tlb.setOn2MBFill(
                [members = std::move(members)](Asid, Addr va_base) {
                    for (CoreComplex *cx : members)
                        cx->markTftRegion(va_base);
                });
        }
    }

    nextPromotion_ = front.promotionInterval;
    nextSplinter_ = front.splinterInterval;

    dProbe_.resize(substrates_.size());
    iProbe_.resize(substrates_.size());
    transitions_.resize(substrates_.size());
    trs_.resize(tlbExemplars_.size());
    itrs_.resize(tlbExemplars_.size());
}

MultiConfigEngine::~MultiConfigEngine() = default;

void
registerSystemAudits(check::InvariantAuditor &auditor,
                     const SystemConfig &config,
                     std::vector<CoreComplex *> complexes,
                     SetAssocCache *shared_llc, ExactDirectory *directory,
                     OsMemoryManager &os, Asid asid)
{
    const bool multi = config.cores > 1;
    const unsigned n = config.cores;
    OsMemoryManager *os_p = &os;
    const auto cxs = std::move(complexes);

    if (directory) {
        auditor.registerCheck(
            "directory", [cxs, directory](check::AuditContext &ctx) {
                std::vector<const L1Cache *> l1s;
                l1s.reserve(cxs.size());
                for (CoreComplex *cx : cxs)
                    l1s.push_back(&cx->l1());
                check::auditDirectoryConsistency(*directory, l1s, ctx);
            });
    }

    // Duplicate lines (one PA in two ways) are legal only under the
    // 4way-8way SEESAW policy, where a page mapped both base and super
    // can be installed twice (§IV-B1).
    const bool allow_dup =
        isSeesawKind(config.l1Kind) &&
        config.policy == InsertionPolicy::FourWayEightWay;

    auditor.registerCheck(
        "l1.tags",
        [cxs, allow_dup, multi, n](check::AuditContext &ctx) {
            for (unsigned c = 0; c < n; ++c) {
                if (multi)
                    ctx.core = static_cast<int>(c);
                check::auditTagStoreSanity(cxs[c]->l1().tags(), ctx,
                                           allow_dup);
            }
        });
    auditor.registerCheck(
        "tlb", [cxs, os_p, multi, n](check::AuditContext &ctx) {
            for (unsigned c = 0; c < n; ++c) {
                if (multi)
                    ctx.core = static_cast<int>(c);
                check::auditTlbAgainstPageTable(cxs[c]->activeTlb(),
                                                os_p->pageTable(), ctx);
            }
        });
    auditor.registerCheck(
        "mem.tcache", [os_p](check::AuditContext &ctx) {
            check::auditTranslationCacheAgainstPageTable(
                os_p->pageTable(), ctx);
        });
    if (multi) {
        auditor.registerCheck(
            "outer.tags", [cxs, shared_llc, n](check::AuditContext &ctx) {
                for (unsigned c = 0; c < n; ++c) {
                    ctx.core = static_cast<int>(c);
                    check::auditTagStoreSanity(cxs[c]->outer().l2(),
                                               ctx);
                }
                ctx.core = -1;
                check::auditTagStoreSanity(*shared_llc, ctx);
            });
    }
    if (isSeesawKind(config.l1Kind)) {
        auditor.registerCheck(
            "l1.partition",
            [cxs, multi, n](check::AuditContext &ctx) {
                for (unsigned c = 0; c < n; ++c) {
                    if (multi)
                        ctx.core = static_cast<int>(c);
                    check::auditSeesawPlacement(*cxs[c]->seesawL1(),
                                                ctx);
                }
            });
        auditor.registerCheck(
            "l1.prefetch",
            [cxs, multi, n](check::AuditContext &ctx) {
                for (unsigned c = 0; c < n; ++c) {
                    if (multi)
                        ctx.core = static_cast<int>(c);
                    check::auditPrefetchPlacement(*cxs[c]->seesawL1(),
                                                  ctx);
                }
            });
        auditor.registerCheck(
            "l1.tft", [cxs, os_p, asid, multi, n](check::AuditContext &ctx) {
                for (unsigned c = 0; c < n; ++c) {
                    if (multi)
                        ctx.core = static_cast<int>(c);
                    check::auditTftAgainstPageTable(
                        cxs[c]->seesawL1()->tft(), os_p->pageTable(),
                        asid, ctx);
                }
            });
    }
    if (cxs[0]->l1i()) {
        auditor.registerCheck(
            "l1i.tags",
            [cxs, allow_dup, multi, n](check::AuditContext &ctx) {
                for (unsigned c = 0; c < n; ++c) {
                    if (multi)
                        ctx.core = static_cast<int>(c);
                    check::auditTagStoreSanity(cxs[c]->l1i()->tags(),
                                               ctx, allow_dup);
                }
            });
        if (cxs[0]->seesawL1i()) {
            auditor.registerCheck(
                "l1i.partition",
                [cxs, multi, n](check::AuditContext &ctx) {
                    for (unsigned c = 0; c < n; ++c) {
                        if (multi)
                            ctx.core = static_cast<int>(c);
                        check::auditSeesawPlacement(
                            *cxs[c]->seesawL1i(), ctx);
                    }
                });
            auditor.registerCheck(
                "l1i.tft",
                [cxs, os_p, asid, multi, n](check::AuditContext &ctx) {
                    for (unsigned c = 0; c < n; ++c) {
                        if (multi)
                            ctx.core = static_cast<int>(c);
                        check::auditTftAgainstPageTable(
                            cxs[c]->seesawL1i()->tft(),
                            os_p->pageTable(), asid, ctx);
                    }
                });
        }
    }
}

void
MultiConfigEngine::setupAuditor(Substrate &sub)
{
    if (sub.config->audit.mode == check::AuditMode::Off)
        return;
    if (!check::kAuditCompiledIn) {
        SEESAW_WARN("audit mode '",
                    check::auditModeName(sub.config->audit.mode),
                    "' requested but the audit layer is compiled out; "
                    "rebuild with -DSEESAW_AUDIT=ON");
        return;
    }
    sub.auditor =
        std::make_unique<check::InvariantAuditor>(sub.config->audit);
    std::vector<CoreComplex *> cxs;
    cxs.reserve(sub.complexes.size());
    for (auto &cx : sub.complexes)
        cxs.push_back(cx.get());
    registerSystemAudits(*sub.auditor, *sub.config, std::move(cxs),
                         sub.sharedLlc.get(), sub.directory, *os_,
                         asid_);
}

void
MultiConfigEngine::demandMap(Addr va)
{
    os_->mapAnonymous(asid_, alignDown(va, k2MB), k2MB,
                      workload_.thpEligibleFraction);
}

void
MultiConfigEngine::applyPromotion(const PromotionEvent &event)
{
    // The OS's TLB-invalidation instruction (§IV-C2): shoot down the
    // 512 stale base-page translations once per shared TLB, then sweep
    // their lines from every substrate's L1s and stall every core. The
    // paper measures the whole operation at 150-200 cycles.
    for (std::size_t g = 0; g < tlbExemplars_.size(); ++g) {
        for (CoreId c = 0; c < cores(); ++c) {
            for (unsigned i = 0; i < 512; ++i)
                groupTlb(g, c).invalidatePage(event.asid,
                                              event.vaBase + i * 4096ULL);
        }
    }
    for (Substrate &sub : substrates_) {
        for (auto &cx : sub.complexes) {
            for (Addr old_pa : event.oldPaBases)
                cx->l1().sweepRegion(old_pa, 4096);
            cx->cpu().addStallCycles(sub.config->shootdownCycles);
        }
        if (sub.directory) {
            // The sweep removed any copies of the old frames from every
            // L1; retire the directory records too (recordEviction is a
            // no-op for lines the directory never tracked).
            for (Addr old_pa : event.oldPaBases) {
                for (CoreId c = 0; c < sub.complexes.size(); ++c) {
                    for (Addr line = old_pa; line < old_pa + 4096;
                         line += 64)
                        sub.directory->recordEviction(c, line);
                }
            }
        }
    }
}

void
MultiConfigEngine::applySplinter(const SplinterEvent &event)
{
    // invlpg on the old 2MB translation; the microarchitecture also
    // invalidates the matching TFT entry in parallel (§IV-C2).
    for (std::size_t g = 0; g < tlbExemplars_.size(); ++g) {
        for (CoreId c = 0; c < cores(); ++c)
            groupTlb(g, c).invalidatePage(event.asid, event.vaBase);
    }
    for (Substrate &sub : substrates_) {
        for (auto &cx : sub.complexes) {
            if (SeesawCache *cache = cx->seesawL1())
                cache->tft().invalidateRegion(event.vaBase);
            cx->cpu().addStallCycles(sub.config->shootdownCycles);
        }
    }
}

void
MultiConfigEngine::unmapBroadcast(Addr va_base, std::uint64_t bytes)
{
    os_->unmapRange(asid_, va_base, bytes);
    const Addr end = va_base + alignUp(bytes, 4096);
    for (std::size_t g = 0; g < tlbExemplars_.size(); ++g) {
        for (CoreId c = 0; c < cores(); ++c) {
            for (Addr va = alignDown(va_base, 4096); va < end;
                 va += 4096)
                groupTlb(g, c).invalidatePage(asid_, va);
        }
    }
    const Addr region_end = alignUp(end, k2MB);
    for (Substrate &sub : substrates_) {
        for (auto &cx : sub.complexes) {
            for (Addr va = alignDown(va_base, k2MB); va < region_end;
                 va += k2MB) {
                if (SeesawCache *cache = cx->seesawL1())
                    cache->tft().invalidateRegion(va);
                if (SeesawCache *cache = cx->seesawL1i())
                    cache->tft().invalidateRegion(va);
            }
            cx->cpu().addStallCycles(sub.config->shootdownCycles);
        }
    }
}

void
MultiConfigEngine::osTick(CoreId c)
{
    const SystemConfig &front = configs_.front();
    CoreComplex &cx = lead(c);
    const std::uint64_t retired = cx.retiredTotal_;

    if (front.contextSwitchInterval &&
        retired >= cx.nextContextSwitch_) {
        cx.nextContextSwitch_ += front.contextSwitchInterval;
        // The TFT carries no ASID tags; context switches flush it.
        for (Substrate &sub : substrates_) {
            if (SeesawCache *cache = sub.complexes[c]->seesawL1())
                cache->tft().flush();
        }
    }

    // OS housekeeping passes are global; core 0's retirement clock
    // drives them (at cores=1 this is exactly the original schedule).
    if (c != 0)
        return;

    if (front.promotionInterval && retired >= nextPromotion_) {
        nextPromotion_ += front.promotionInterval;
        for (const auto &event : os_->runPromotionPass(asid_, 2))
            applyPromotion(event);
    }

    if (front.splinterInterval && retired >= nextSplinter_) {
        nextSplinter_ += front.splinterInterval;
        const auto supers = os_->superpageVas(asid_);
        if (!supers.empty()) {
            const Addr va =
                supers[eventRng_.nextBounded(supers.size())];
            if (auto event = os_->splinter(asid_, va))
                applySplinter(*event);
        }
    }
}

std::uint64_t
MultiConfigEngine::stepOne(CoreId c, std::uint64_t room)
{
    Substrate &sub = substrates_[0];
    CoreComplex &cx = *sub.complexes[c];
    MemRef ref = cx.nextRef();
    // Clamp the gap so we never badly overshoot the budget.
    if (ref.gap + 1ULL > room)
        ref.gap = static_cast<std::uint32_t>(room > 0 ? room - 1 : 0);
    const std::uint64_t retired = ref.gap + 1;
    cx.cpu().retireNonMemory(ref.gap);

    // Pre-TLB TFT probe, then translate (the L1 TLB probe runs in
    // parallel with L1 set selection; only L2-TLB latency and walks
    // are exposed).
    const int tft_probe = cx.probeDataTft(ref.va);
    TlbLookupResult tr = cx.activeTlb().lookup(asid_, ref.va);
    cx.chargeTranslation(tr);
    if (tr.fault) {
        // Demand-page and retry. Synthetic footprints are premapped so
        // this is rare; trace replay relies on it.
        demandMap(ref.va);
        tr = cx.activeTlb().lookup(asid_, ref.va);
        SEESAW_ASSERT(!tr.fault, "fault persists after demand paging");
    }
    const bool transition =
        cx.finishMemoryAccess(ref, tr, tft_probe, sub.fabric.get());
    cx.doInstructionFetches(retired);

    cx.retiredTotal_ += retired;
    if (ProbeEngine *probes = cx.probeEngine())
        probes->tick(retired);
    osTick(c);
    if constexpr (check::kAuditCompiledIn) {
        if (sub.auditor) {
            const Cycles now = cx.cpu().cycles();
            if (sub.fabric && transition)
                sub.auditor->onCoherenceTransition(now);
            sub.auditor->onEvent(retired, now);
        }
    }
    return retired;
}

std::uint64_t
MultiConfigEngine::step(CoreId c, std::uint64_t room)
{
    CoreComplex &first = lead(c);
    MemRef ref = first.nextRef();
    if (ref.gap + 1ULL > room)
        ref.gap = static_cast<std::uint32_t>(room > 0 ? room - 1 : 0);
    const std::uint64_t retired = ref.gap + 1;
    for (Substrate &sub : substrates_)
        sub.complexes[c]->cpu().retireNonMemory(ref.gap);

    // Pre-TLB TFT probes: every substrate samples its own TFT before
    // any shared 2MB refresh fires.
    for (std::size_t s = 0; s < substrates_.size(); ++s)
        dProbe_[s] = substrates_[s].complexes[c]->probeDataTft(ref.va);

    // One lookup per TLB group — the shared work the pass exists for.
    for (std::size_t g = 0; g < trs_.size(); ++g)
        trs_[g] = groupTlb(g, c).lookup(asid_, ref.va);

    // Translation is config-invariant, so every group agrees on
    // whether the access faults.
    const bool faulted = trs_[0].fault;
    for (const TlbLookupResult &tr : trs_) {
        SEESAW_ASSERT(tr.fault == faulted,
                      "substrates disagree on a page fault");
    }

    for (std::size_t s = 0; s < substrates_.size(); ++s) {
        substrates_[s].complexes[c]->chargeTranslation(
            trs_[substrates_[s].tlbGroup]);
    }

    if (faulted) {
        // Demand-page once; each group retries its lookup (identical
        // to every member's solo fault path).
        demandMap(ref.va);
        for (std::size_t g = 0; g < trs_.size(); ++g) {
            trs_[g] = groupTlb(g, c).lookup(asid_, ref.va);
            SEESAW_ASSERT(!trs_[g].fault,
                          "fault persists after demand paging");
        }
    }

    for (std::size_t s = 0; s < substrates_.size(); ++s) {
        Substrate &sub = substrates_[s];
        transitions_[s] =
            sub.complexes[c]->finishMemoryAccess(
                ref, trs_[sub.tlbGroup], dProbe_[s],
                sub.fabric.get())
                ? 1
                : 0;
    }

    // Instruction fetches: the first substrate's complex owns the
    // fetch carry and the fetch-line stream; substrates complete each
    // line independently.
    std::uint64_t fetches = first.takeFetchLines(retired);
    while (fetches-- > 0) {
        const Addr va = first.nextFetchLine();
        for (std::size_t s = 0; s < substrates_.size(); ++s)
            iProbe_[s] = substrates_[s].complexes[c]->probeCodeTft(va);
        for (std::size_t g = 0; g < itrs_.size(); ++g) {
            itrs_[g] = groupTlb(g, c).lookup(asid_, va);
            SEESAW_ASSERT(!itrs_[g].fault,
                          "text segment must be premapped");
        }
        for (std::size_t s = 0; s < substrates_.size(); ++s) {
            Substrate &sub = substrates_[s];
            sub.complexes[c]->chargeTranslation(itrs_[sub.tlbGroup]);
            sub.complexes[c]->finishFetch(va, itrs_[sub.tlbGroup],
                                          iProbe_[s]);
        }
    }

    first.retiredTotal_ += retired;
    for (Substrate &sub : substrates_) {
        if (ProbeEngine *probes = sub.complexes[c]->probeEngine())
            probes->tick(retired);
    }
    osTick(c);
    if constexpr (check::kAuditCompiledIn) {
        // Fabric state and caches are mutually consistent again here:
        // audit after every completed transition in Paranoid mode.
        for (std::size_t s = 0; s < substrates_.size(); ++s) {
            Substrate &sub = substrates_[s];
            if (!sub.auditor)
                continue;
            const Cycles now = sub.complexes[c]->cpu().cycles();
            if (sub.fabric && transitions_[s])
                sub.auditor->onCoherenceTransition(now);
            sub.auditor->onEvent(retired, now);
        }
    }
    return retired;
}

void
MultiConfigEngine::runLoop(std::uint64_t per_core_budget)
{
    // One substrate has nothing to interleave: it takes the fused
    // composition.
    const bool one = substrates_.size() == 1;
    std::vector<std::uint64_t> retired(cores(), 0);
    bool progress = true;
    while (progress) {
        progress = false;
        for (CoreId c = 0; c < retired.size(); ++c) {
            if (retired[c] < per_core_budget) {
                const std::uint64_t room = per_core_budget - retired[c];
                retired[c] += one ? stepOne(c, room) : step(c, room);
                progress = true;
            }
        }
    }
}

void
MultiConfigEngine::resetMeasurement()
{
    for (Substrate &sub : substrates_) {
        for (auto &cx : sub.complexes)
            cx->resetMeasurement();
        sub.energy->reset();
        if (sub.fabric)
            sub.fabric->resetStats();
    }
}

std::vector<RunResult>
MultiConfigEngine::run()
{
    const SystemConfig &front = configs_.front();
    if (front.warmupInstructions > 0) {
        runLoop(front.warmupInstructions);
        resetMeasurement();
    }
    runLoop(front.instructions);

    std::vector<RunResult> results;
    results.reserve(substrates_.size());
    for (Substrate &sub : substrates_) {
        Cycles max_cycles = 0;
        for (auto &cx : sub.complexes)
            max_cycles = std::max(max_cycles, cx->cpu().cycles());

        if constexpr (check::kAuditCompiledIn) {
            if (sub.auditor)
                sub.auditor->onEndOfRun(max_cycles);
        }

        // Static energy over the whole run: every core's L1 leakage
        // plus the outer hierarchy's background power (this is where
        // faster runtime becomes hierarchy-energy savings).
        for (auto &cx : sub.complexes) {
            sub.energy->addL1Leakage(sub.config->l1SizeBytes,
                                     max_cycles, sub.config->freqGhz);
            if (const L1Cache *l1i = cx->l1i())
                sub.energy->addL1Leakage(l1i->tags().sizeBytes(),
                                         max_cycles, sub.config->freqGhz);
        }
        sub.energy->addBackground(max_cycles, sub.config->freqGhz);

        std::vector<CoreComplex *> cxs;
        cxs.reserve(sub.complexes.size());
        for (auto &cx : sub.complexes)
            cxs.push_back(cx.get());
        results.push_back(collectRunResults(
            *sub.config, workload_, cxs, *sub.energy,
            sub.fabric.get(), *os_, asid_, max_cycles));
    }
    return results;
}

RunResult
collectRunResults(const SystemConfig &config,
                  const WorkloadSpec &workload,
                  const std::vector<CoreComplex *> &complexes,
                  EnergyModel &energy, CoherenceFabric *fabric,
                  OsMemoryManager &os, Asid asid, Cycles max_cycles)
{
    RunResult r;
    r.workload = workload.name;
    r.cores = config.cores;
    r.cycles = max_cycles;
    r.runtimeNs = static_cast<double>(r.cycles) / config.freqGhz;

    double wp_sum = 0.0;
    unsigned wp_count = 0;
    for (CoreComplex *cx : complexes) {
        PerCoreResult pc;
        pc.instructions = cx->cpu().instructions();
        pc.cycles = cx->cpu().cycles();
        pc.ipc = cx->cpu().ipc();
        pc.squashes = cx->cpu().squashes();
        pc.pageFaults = cx->pageFaults();

        const StatGroup &cs = cx->l1().stats();
        pc.l1Accesses =
            static_cast<std::uint64_t>(cs.get("accesses"));
        pc.l1Hits = static_cast<std::uint64_t>(cs.get("hits"));
        pc.l1Misses = static_cast<std::uint64_t>(cs.get("misses"));

        r.instructions += pc.instructions;
        r.l1Accesses += pc.l1Accesses;
        r.l1Hits += pc.l1Hits;
        r.l1Misses += pc.l1Misses;
        r.superpageRefs +=
            static_cast<std::uint64_t>(cs.get("superpage_refs"));
        r.superpageRefsTftMiss = r.superpageRefsTftMiss +
            static_cast<std::uint64_t>(
                cs.get("superpage_refs_tft_miss"));
        r.superpageRefsTftMissL1Hit = r.superpageRefsTftMissL1Hit +
            static_cast<std::uint64_t>(
                cs.get("superpage_refs_tft_miss_l1_hit"));
        r.superpageRefsTftMissL1Miss = r.superpageRefsTftMissL1Miss +
            static_cast<std::uint64_t>(
                cs.get("superpage_refs_tft_miss_l1_miss"));

        const StatGroup &os_stats = cx->outer().stats();
        r.l2Accesses +=
            static_cast<std::uint64_t>(os_stats.get("l2_accesses"));
        r.l2Hits +=
            static_cast<std::uint64_t>(os_stats.get("l2_hits"));
        r.llcAccesses +=
            static_cast<std::uint64_t>(os_stats.get("llc_accesses"));
        r.llcHits +=
            static_cast<std::uint64_t>(os_stats.get("llc_hits"));
        r.dramAccesses +=
            static_cast<std::uint64_t>(os_stats.get("dram_accesses"));

        if (SeesawCache *cache = cx->seesawL1()) {
            r.tftLookups += static_cast<std::uint64_t>(
                cache->tft().stats().get("lookups"));
            pc.tftHits = static_cast<std::uint64_t>(
                cache->tft().stats().get("hits"));
            r.tftHits += pc.tftHits;
        }
        if (const MruWayPredictor *wp = cx->l1().wayPredictor()) {
            wp_sum += wp->accuracy();
            ++wp_count;
        }

        if (L1Cache *l1i = cx->l1i()) {
            r.l1iAccesses += static_cast<std::uint64_t>(
                l1i->stats().get("accesses"));
            r.l1iMisses += static_cast<std::uint64_t>(
                l1i->stats().get("misses"));
        }

        r.prefetchIssued += cx->prefetchIssued();
        r.prefetchUseful += cx->prefetchUseful();
        r.prefetchLate += cx->prefetchLate();
        r.prefetchIllegalCrossing += cx->prefetchIllegalCrossing();

        r.squashes += pc.squashes;
        r.pageFaults += pc.pageFaults;
        r.perCore.push_back(pc);
    }

    r.ipc = r.cycles ? static_cast<double>(r.instructions) /
                           static_cast<double>(r.cycles)
                     : 0.0;
    r.l1Mpki = r.instructions
                   ? 1000.0 * static_cast<double>(r.l1Misses) /
                         static_cast<double>(r.instructions)
                   : 0.0;
    r.superpageRefFraction =
        r.l1Accesses ? static_cast<double>(r.superpageRefs) /
                           static_cast<double>(r.l1Accesses)
                     : 0.0;
    if (isSeesawKind(config.l1Kind))
        r.fastHits = r.tftHits;
    if (wp_count)
        r.wpAccuracy = wp_sum / static_cast<double>(wp_count);

    r.superpageCoverage = os.superpageCoverage(asid);

    r.energyTotalNj = energy.totalNj();
    r.l1CpuDynamicNj = energy.l1CpuDynamicNj();
    r.l1CoherenceDynamicNj = energy.l1CoherenceDynamicNj();
    r.l1LeakageNj = energy.l1LeakageNj();
    r.outerNj = energy.outerHierarchyNj();
    r.translationNj = energy.translationNj();

    if (fabric) {
        r.probes = fabric->probes();
        r.probeHits = fabric->probeHits();
        r.probeInvalidations = fabric->invalidations();
        r.ownerSupplies = fabric->ownerSupplies();
    } else if (ProbeEngine *probes = complexes[0]->probeEngine()) {
        r.probes = probes->probes();
        r.probeHits = probes->probeHits();
        r.probeInvalidations = probes->invalidations();
    }

    r.promotions = os.promotions();
    r.splinters = os.splinters();
    return r;
}

} // namespace seesaw
