#include "replay.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace perfbench {

using namespace seesaw;

const std::array<const char *, kLayerCount> kLayerNames = {
    "sim.step",         "workload.next_ref",
    "cpu.retire_nonmem", "core.tft_probe",
    "tlb.lookup",       "model.charge_translation",
    "mem.demand_map",   "cache.finish_access",
    "coherence.fabric", "cache.l1_access",
    "model.energy",     "cache.outer",
    "cpu.retire_memory", "coherence.probe_tick",
    "sim.os_tick",      "mem.promotion_pass",
    "sim.collect",
};

namespace {

std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

SpanRecorder::SpanRecorder(std::uint64_t sample_every,
                           std::uint64_t max_samples)
    : epoch_(Clock::now()), sampleEvery_(sample_every ? sample_every : 1),
      maxSamples_(max_samples)
{
    stack_.reserve(8);
}

void
SpanRecorder::begin(Layer layer)
{
    stack_.push_back(Frame{layer, Clock::now(), 0, 0});
}

void
SpanRecorder::end()
{
    const Clock::time_point now = Clock::now();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const auto dur = static_cast<std::uint64_t>(nsBetween(frame.start, now));
    Totals &t = totals_[frame.layer];
    t.totalNs += dur;
    t.selfNs += dur >= frame.childNs ? dur - frame.childNs : 0;
    ++t.spans;
    t.childSpans += frame.children;
    if (!stack_.empty()) {
        stack_.back().childNs += dur;
        ++stack_.back().children;
    }
    if (sampling_) {
        records_.push_back(Record{
            step_, frame.layer,
            stack_.empty() ? -1 : static_cast<int>(stack_.back().layer),
            nsBetween(epoch_, frame.start), nsBetween(epoch_, now)});
        if (stack_.empty())
            sampling_ = false;
    }
}

void
SpanRecorder::beginStep()
{
    ++step_;
    sampling_ = step_ % sampleEvery_ == 0 && samples_ < maxSamples_;
    if (sampling_)
        ++samples_;
    begin(kStep);
}

SpanRecorder::Overhead
SpanRecorder::calibrate()
{
    // Median of several rounds: one round of empty spans, one of
    // parents each holding one empty child.
    constexpr std::uint64_t kSpans = 20000;
    std::vector<double> empty, per_child;
    for (int round = 0; round < 7; ++round) {
        SpanRecorder rec(1, 0);
        for (std::uint64_t i = 0; i < kSpans; ++i) {
            rec.begin(kStep);
            rec.end();
        }
        for (std::uint64_t i = 0; i < kSpans; ++i) {
            rec.begin(kNextRef);
            rec.begin(kRetireNonMem);
            rec.end();
            rec.end();
        }
        const Totals &e = rec.totals_[kStep];
        const Totals &parent = rec.totals_[kNextRef];
        const Totals &child = rec.totals_[kRetireNonMem];
        empty.push_back(static_cast<double>(e.totalNs + child.totalNs) /
                        (2 * kSpans));
        per_child.push_back(static_cast<double>(parent.selfNs) / kSpans -
                            static_cast<double>(e.totalNs) / kSpans);
    }
    std::sort(empty.begin(), empty.end());
    std::sort(per_child.begin(), per_child.end());
    return Overhead{empty[empty.size() / 2],
                    per_child[per_child.size() / 2]};
}

void
SpanRecorder::writeSpans(std::ostream &os) const
{
    for (const Record &r : records_) {
        os << "{\"step\":" << r.step << ",\"name\":\""
           << kLayerNames[r.layer] << "\",\"parent\":";
        if (r.parent < 0)
            os << "null";
        else
            os << '"' << kLayerNames[r.parent] << '"';
        os << ",\"start_ns\":" << r.startNs << ",\"end_ns\":" << r.endNs
           << "}\n";
    }
}

ReplayCounts &
ReplayCounts::operator+=(const ReplayCounts &o)
{
    steps += o.steps;
    measuredSteps += o.measuredSteps;
    tlbLookups += o.tlbLookups;
    tlbL1Hits += o.tlbL1Hits;
    tlbWalks += o.tlbWalks;
    tlbFaults += o.tlbFaults;
    osEvents += o.osEvents;
    warmupS += o.warmupS;
    measuredS += o.measuredS;
    collectS += o.collectS;
    return *this;
}

namespace {

constexpr Addr k2MB = 2ULL * 1024 * 1024;

/**
 * SimEngine::run() spelled out over public calls. Every step below
 * mirrors sim/sim_engine.cc (runLoop, step, osTick, applyPromotion,
 * applySplinter, resetMeasurement, run) and, inside an access,
 * sim/core_complex.cc (doMemoryAccess, finishMemoryAccess) in the same
 * order, so that every RNG draw and floating-point accumulation lands
 * exactly as in the engine.
 */
class Replayer
{
  public:
    Replayer(SimEngine &engine, const WorkloadSpec &workload,
             SpanRecorder *rec, ReplayCounts &counts)
        : e_(engine), cfg_(engine.config()), w_(workload), rec_(rec),
          n_(counts),
          // SimEngine's private OS-event RNG: same seed and salt.
          eventRng_(cfg_.seed ^ 0xe7e27ULL),
          nextPromotion_(cfg_.promotionInterval),
          nextSplinter_(cfg_.splinterInterval)
    {
        SEESAW_ASSERT(engine.auditor() == nullptr,
                      "the traced replay supports audit-off runs only");
        SEESAW_ASSERT(cfg_.prefetch.kind == PrefetchKind::None,
                      "the traced replay supports prefetch-free runs only");
    }

    RunResult
    run()
    {
        const Clock::time_point t0 = Clock::now();
        if (cfg_.warmupInstructions > 0) {
            loop(cfg_.warmupInstructions);
            resetMeasurement();
        }
        const Clock::time_point t1 = Clock::now();
        const std::uint64_t before = n_.steps;
        loop(cfg_.instructions);
        n_.measuredSteps += n_.steps - before;
        const Clock::time_point t2 = Clock::now();
        RunResult result;
        {
            Span s(rec_, kCollect);
            result = collect();
        }
        const Clock::time_point t3 = Clock::now();
        n_.warmupS += secondsBetween(t0, t1);
        n_.measuredS += secondsBetween(t1, t2);
        n_.collectS += secondsBetween(t2, t3);
        return result;
    }

  private:
    SimEngine &e_;
    const SystemConfig &cfg_;
    const WorkloadSpec &w_;
    SpanRecorder *rec_;
    ReplayCounts &n_;
    Rng eventRng_;
    std::uint64_t nextPromotion_;
    std::uint64_t nextSplinter_;

    void
    loop(std::uint64_t per_core_budget)
    {
        std::vector<std::uint64_t> retired(e_.cores(), 0);
        bool progress = true;
        while (progress) {
            progress = false;
            for (CoreId c = 0; c < e_.cores(); ++c) {
                if (retired[c] < per_core_budget) {
                    retired[c] += step(c, per_core_budget - retired[c]);
                    progress = true;
                }
            }
        }
    }

    std::uint64_t
    step(CoreId c, std::uint64_t room)
    {
        CoreComplex &cx = e_.complex(c);
        if (rec_)
            rec_->beginStep();
        ++n_.steps;
        MemRef ref;
        {
            Span s(rec_, kNextRef);
            ref = cx.nextRef();
        }
        if (ref.gap + 1ULL > room)
            ref.gap = static_cast<std::uint32_t>(room > 0 ? room - 1 : 0);
        {
            Span s(rec_, kRetireNonMem);
            cx.cpu().retireNonMemory(ref.gap);
        }
        memoryAccess(cx, ref);
        cx.doInstructionFetches(ref.gap + 1); // no L1I: a no-op
        cx.retiredTotal_ += ref.gap + 1;
        if (ProbeEngine *probes = cx.probeEngine()) {
            Span s(rec_, kProbeTick);
            probes->tick(ref.gap + 1);
        }
        osTick(c);
        if (rec_)
            rec_->end();
        return ref.gap + 1;
    }

    TlbLookupResult
    lookup(CoreComplex &cx, Addr va)
    {
        TlbLookupResult tr;
        {
            Span s(rec_, kTlbLookup);
            tr = cx.activeTlb().lookup(e_.asid(), va);
        }
        ++n_.tlbLookups;
        n_.tlbL1Hits += tr.l1Hit;
        n_.tlbWalks += tr.walked;
        n_.tlbFaults += tr.fault;
        return tr;
    }

    /** CoreComplex::doMemoryAccess. */
    void
    memoryAccess(CoreComplex &cx, const MemRef &ref)
    {
        int tft_probe;
        {
            Span s(rec_, kTftProbe);
            tft_probe = cx.probeDataTft(ref.va);
        }
        TlbLookupResult tr = lookup(cx, ref.va);
        {
            Span s(rec_, kChargeTranslation);
            cx.chargeTranslation(tr);
        }
        if (tr.fault) {
            {
                Span s(rec_, kDemandMap);
                e_.os().mapAnonymous(e_.asid(), alignDown(ref.va, k2MB),
                                     k2MB, w_.thpEligibleFraction);
            }
            tr = lookup(cx, ref.va);
            SEESAW_ASSERT(!tr.fault, "fault persists after demand paging");
        }
        Span s(rec_, kFinishAccess);
        finishAccess(cx, ref, tr, tft_probe);
    }

    /** CoreComplex::finishMemoryAccess, steps 2-6 (no prefetcher). */
    void
    finishAccess(CoreComplex &cx, const MemRef &ref,
                 const TlbLookupResult &tr, int tft_probe)
    {
        const Addr pa = tr.translation.translate(ref.va);
        CoherenceFabric *fabric = e_.fabric();
        EnergyModel &energy = e_.energy();
        L1Cache &l1 = cx.l1();
        SeesawCache *seesaw = cx.seesawL1();
        OuterHierarchy &outer = cx.outer();

        FabricPreAccess pre;
        if (fabric) {
            Span s(rec_, kFabric);
            pre = fabric->preAccess(cx.core(), pa, ref.type);
        }

        L1AccessResult res;
        {
            Span s(rec_, kL1Access);
            const L1Access req{ref.va, pa, tr.translation.size, ref.type,
                               tft_probe};
            res = seesaw ? seesaw->access(req) : l1.access(req);
        }
        {
            Span s(rec_, kEnergy);
            if (seesaw)
                energy.addTftLookup();
            if (res.wpUsed)
                energy.addWayPredictorLookup();
            energy.addL1Lookup(l1.tags().sizeBytes(), l1.tags().assoc(),
                               res.waysRead, /*coherent=*/false);
        }
        if (ProbeEngine *probes = cx.probeEngine())
            probes->noteResident(pa);

        unsigned miss_penalty = pre.cycles;
        if (!res.hit) {
            if (pre.ownerSupplied) {
                miss_penalty += outer.l2Cycles() + outer.llcCycles();
                Span s(rec_, kEnergy);
                energy.addL2Access();
            } else {
                OuterAccessResult o;
                {
                    Span s(rec_, kOuter);
                    o = outer.access(pa, ref.type);
                }
                miss_penalty += o.cycles;
                Span s(rec_, kEnergy);
                energy.addL2Access();
                if (o.llcAccessed)
                    energy.addLlcAccess();
                if (o.dramAccessed)
                    energy.addDramAccess();
            }
            {
                Span s(rec_, kEnergy);
                energy.addLineInstall(res.installWays);
            }
            if (res.eviction.valid && res.eviction.dirty()) {
                {
                    Span s(rec_, kOuter);
                    outer.writeback(res.eviction.lineAddr *
                                    l1.tags().lineBytes());
                }
                Span s(rec_, kEnergy);
                energy.addL2Access();
            }
        }
        // res.wasPrefetched needs a prefetcher, which the replay rules out.

        if (fabric) {
            Span s(rec_, kFabric);
            fabric->postAccess(cx.core(), pa, ref.type, res, pre);
        }

        Span s(rec_, kRetireMemory);
        MemTiming timing;
        timing.hit = res.hit;
        timing.missPenalty = miss_penalty;
        timing.lateDiscovery = res.lateDiscovery || !res.hit;
        if (cfg_.coreKind == CoreKind::InOrder) {
            timing.lookupCycles = res.latencyCycles;
            timing.assumedCycles = res.latencyCycles;
        } else {
            unsigned assumed = l1.baseHitCycles();
            if (seesaw) {
                const bool assume_fast = !cfg_.schedulerCounterPolicy ||
                                         cx.activeTlb().superpagesAmple();
                assumed = assume_fast ? l1.fastHitCycles()
                                      : l1.baseHitCycles();
            } else if (cfg_.l1Kind == L1Kind::Sipt) {
                assumed = l1.fastHitCycles();
            }
            timing.lookupCycles = std::max(res.latencyCycles, assumed);
            timing.assumedCycles = assumed;
        }
        cx.cpu().retireMemory(timing);
        if (tr.penaltyCycles)
            cx.cpu().addStallCycles(tr.penaltyCycles);
    }

    void
    osTick(CoreId c)
    {
        CoreComplex &cx = e_.complex(c);
        const std::uint64_t retired = cx.retiredTotal_;

        if (cfg_.contextSwitchInterval &&
            retired >= cx.nextContextSwitch_) {
            Span s(rec_, kOsTick);
            ++n_.osEvents;
            cx.nextContextSwitch_ += cfg_.contextSwitchInterval;
            if (SeesawCache *cache = cx.seesawL1())
                cache->tft().flush();
        }
        if (c != 0)
            return;

        if (cfg_.promotionInterval && retired >= nextPromotion_) {
            Span s(rec_, kOsTick);
            ++n_.osEvents;
            nextPromotion_ += cfg_.promotionInterval;
            std::vector<PromotionEvent> events;
            {
                Span p(rec_, kPromotionPass);
                events = e_.os().runPromotionPass(e_.asid(), 2);
            }
            for (const PromotionEvent &event : events)
                applyPromotion(event);
        }

        if (cfg_.splinterInterval && retired >= nextSplinter_) {
            Span s(rec_, kOsTick);
            ++n_.osEvents;
            nextSplinter_ += cfg_.splinterInterval;
            const auto supers = e_.os().superpageVas(e_.asid());
            if (!supers.empty()) {
                const Addr va =
                    supers[eventRng_.nextBounded(supers.size())];
                if (auto event = e_.os().splinter(e_.asid(), va))
                    applySplinter(*event);
            }
        }
    }

    void
    applyPromotion(const PromotionEvent &event)
    {
        for (CoreId c = 0; c < e_.cores(); ++c) {
            CoreComplex &cx = e_.complex(c);
            for (unsigned i = 0; i < 512; ++i)
                cx.tlb().invalidatePage(event.asid,
                                        event.vaBase + i * 4096ULL);
            for (Addr old_pa : event.oldPaBases)
                cx.l1().sweepRegion(old_pa, 4096);
            cx.cpu().addStallCycles(cfg_.shootdownCycles);
        }
        if (ExactDirectory *directory = e_.directory()) {
            for (Addr old_pa : event.oldPaBases) {
                for (CoreId c = 0; c < e_.cores(); ++c) {
                    for (Addr line = old_pa; line < old_pa + 4096;
                         line += 64)
                        directory->recordEviction(c, line);
                }
            }
        }
    }

    void
    applySplinter(const SplinterEvent &event)
    {
        for (CoreId c = 0; c < e_.cores(); ++c) {
            CoreComplex &cx = e_.complex(c);
            cx.tlb().invalidatePage(event.asid, event.vaBase);
            if (SeesawCache *cache = cx.seesawL1())
                cache->tft().invalidateRegion(event.vaBase);
            cx.cpu().addStallCycles(cfg_.shootdownCycles);
        }
    }

    void
    resetMeasurement()
    {
        for (CoreId c = 0; c < e_.cores(); ++c)
            e_.complex(c).resetMeasurement();
        e_.energy().reset();
        if (CoherenceFabric *fabric = e_.fabric())
            fabric->resetStats();
    }

    /** The tail of SimEngine::run(): static energy, then collect. */
    RunResult
    collect()
    {
        std::vector<CoreComplex *> cxs;
        Cycles max_cycles = 0;
        for (CoreId c = 0; c < e_.cores(); ++c) {
            cxs.push_back(&e_.complex(c));
            max_cycles = std::max(max_cycles, e_.complex(c).cpu().cycles());
        }
        EnergyModel &energy = e_.energy();
        for (CoreComplex *cx : cxs) {
            energy.addL1Leakage(cfg_.l1SizeBytes, max_cycles, cfg_.freqGhz);
            if (cx->l1i())
                energy.addL1Leakage(32 * 1024, max_cycles, cfg_.freqGhz);
        }
        energy.addBackground(max_cycles, cfg_.freqGhz);
        return collectRunResults(cfg_, w_, cxs, energy, e_.fabric(),
                                 e_.os(), e_.asid(), max_cycles);
    }
};

} // namespace

RunResult
replayRun(SimEngine &engine, const WorkloadSpec &workload,
          SpanRecorder *rec, ReplayCounts &counts)
{
    return Replayer(engine, workload, rec, counts).run();
}

} // namespace perfbench
