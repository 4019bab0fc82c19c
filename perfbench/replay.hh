/**
 * @file
 * The benchmark's traced replay. It takes a freshly constructed
 * SimEngine and, instead of calling run(), replays run()'s loop —
 * warmup, resetMeasurement, measured window, collectRunResults —
 * through the engine's public component accessors and the CoreComplex
 * one-pass decomposition API, with a span around every call into a
 * layer. Spans live here, not in src/: the simulator is measured as
 * built.
 *
 * The replay must produce a RunResult bit-identical to
 * SimEngine::run() on the same config; callers compare the two and
 * count any divergence as a failed cell, so the traced figures always
 * describe the program that the untraced run measured.
 */

#ifndef SEESAW_PERFBENCH_REPLAY_HH
#define SEESAW_PERFBENCH_REPLAY_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/sim_engine.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Every span the traced replay records, named after src/ modules. */
enum Layer : unsigned
{
    kStep,              //!< one engine step (the root of each access)
    kNextRef,           //!< CoreComplex::nextRef
    kRetireNonMem,      //!< CpuModel::retireNonMemory
    kTftProbe,          //!< CoreComplex::probeDataTft
    kTlbLookup,         //!< TlbHierarchy::lookup (and the fault retry)
    kChargeTranslation, //!< CoreComplex::chargeTranslation
    kDemandMap,         //!< OsMemoryManager::mapAnonymous on a fault
    kFinishAccess,      //!< the steps of finishMemoryAccess, as a whole
    kFabric,            //!< CoherenceFabric pre/postAccess
    kL1Access,          //!< L1Cache::access
    kEnergy,            //!< EnergyModel accounting calls
    kOuter,             //!< OuterHierarchy access/writeback
    kRetireMemory,      //!< core timing: CpuModel::retireMemory
    kProbeTick,         //!< ProbeEngine::tick (cores=1)
    kOsTick,            //!< an OS event: context switch, promotion,
                        //!< splinter (only steps where one fires)
    kPromotionPass,     //!< OsMemoryManager::runPromotionPass
    kCollect,           //!< end-of-run energy tail + collectRunResults
    kLayerCount
};

/** The metric stem of each layer ("core.tft_probe" → core.tft_probe_ns). */
extern const std::array<const char *, kLayerCount> kLayerNames;

/**
 * In-memory span accounting: per-layer self and total time plus span
 * counts for every span, and full span records (name, parent, start,
 * end, step id) for a sample of steps, written out at the end.
 */
class SpanRecorder
{
  public:
    /** @param sample_every Record full spans for every Nth step.
     *  @param max_samples Stop recording spans after this many steps. */
    SpanRecorder(std::uint64_t sample_every, std::uint64_t max_samples);

    struct Totals
    {
        std::uint64_t selfNs = 0;
        std::uint64_t totalNs = 0;
        std::uint64_t spans = 0;
        std::uint64_t childSpans = 0; //!< direct children of these spans
    };

    /** What one span costs the measurement itself: an empty span's
     *  duration, and the self time one empty child adds to its parent.
     *  Subtracting spans × emptyNs + childSpans × perChildNs from a
     *  layer's self time removes the timer's share. */
    struct Overhead
    {
        double emptyNs = 0;
        double perChildNs = 0;
    };
    static Overhead calibrate();

    void begin(Layer layer);
    void end();

    /** Open the root span of a new step. */
    void beginStep();

    const std::array<Totals, kLayerCount> &totals() const
    {
        return totals_;
    }

    /** Write the sampled span records as JSON lines. */
    void writeSpans(std::ostream &os) const;

  private:
    struct Frame
    {
        Layer layer;
        Clock::time_point start;
        std::uint64_t childNs;
        std::uint64_t children;
    };
    struct Record
    {
        std::uint64_t step;
        Layer layer;
        int parent; //!< -1 for the step root
        std::int64_t startNs;
        std::int64_t endNs;
    };

    std::array<Totals, kLayerCount> totals_{};
    std::vector<Frame> stack_;
    std::vector<Record> records_;
    Clock::time_point epoch_;
    std::uint64_t step_ = 0;
    std::uint64_t sampleEvery_;
    std::uint64_t maxSamples_;
    std::uint64_t samples_ = 0;
    bool sampling_ = false;
};

/** A span for the enclosing scope; a no-op when @p rec is null. */
class Span
{
  public:
    Span(SpanRecorder *rec, Layer layer) : rec_(rec)
    {
        if (rec_)
            rec_->begin(layer);
    }
    ~Span()
    {
        if (rec_)
            rec_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder *rec_;
};

/** Counts and phase times one replay observed. */
struct ReplayCounts
{
    std::uint64_t steps = 0;         //!< memory references, all phases
    std::uint64_t measuredSteps = 0; //!< ... in the measured window
    std::uint64_t tlbLookups = 0;
    std::uint64_t tlbL1Hits = 0;
    std::uint64_t tlbWalks = 0;
    std::uint64_t tlbFaults = 0;
    std::uint64_t osEvents = 0; //!< context switches, promotion passes
                                //!< and splinters that fired
    double warmupS = 0.0;
    double measuredS = 0.0;
    double collectS = 0.0;

    ReplayCounts &operator+=(const ReplayCounts &o);
};

/**
 * Replay @p engine's run() with spans recorded into @p rec (null: no
 * spans, phase timers only). @p engine must be freshly constructed
 * from @p workload, with audits off and no prefetcher (the replay
 * cannot reach CoreComplex's private prefetch counters).
 */
seesaw::RunResult replayRun(seesaw::SimEngine &engine,
                            const seesaw::WorkloadSpec &workload,
                            SpanRecorder *rec, ReplayCounts &counts);

} // namespace perfbench

#endif // SEESAW_PERFBENCH_REPLAY_HH
