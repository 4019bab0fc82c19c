/**
 * @file
 * Core timing models: an in-order Atom-like core and an out-of-order
 * Sandybridge-like core (Table II).
 *
 * These are throughput models, not pipeline simulators: they charge
 * cycles for committed instructions and memory accesses, capturing the
 * effects the paper's evaluation depends on — (i) in-order cores
 * expose the full L1 hit latency while out-of-order cores hide part of
 * it, and (ii) speculative scheduling replays (squashes) when a
 * variable-latency L1 misses the latency the scheduler assumed
 * (Section IV-B3).
 *
 * CpuModel is concrete: the retire fast path branches on CoreKind
 * instead of going through virtual dispatch, so the per-reference calls
 * from MultiConfigEngine::runLoop inline. InOrderCore / OoOCore remain
 * as thin preset subclasses for tests and direct construction.
 */

#ifndef SEESAW_CPU_CPU_MODEL_HH
#define SEESAW_CPU_CPU_MODEL_HH

#include <cmath>
#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"

namespace seesaw {

/** Core kind (Table II). */
enum class CoreKind : std::uint8_t
{
    InOrder,    //!< ~Intel Atom
    OutOfOrder, //!< ~Intel Sandybridge
};

/** Timing of one memory access as seen by the core. */
struct MemTiming
{
    bool hit = false;
    unsigned lookupCycles = 0;  //!< L1 lookup latency
    unsigned missPenalty = 0;   //!< outer-hierarchy cycles (0 on hit)
    unsigned assumedCycles = 0; //!< latency the scheduler assumed

    /** The true latency was discovered after the speculative wakeup
     *  (miss, WP mispredict): exceeding the assumption costs a full
     *  squash-and-replay. Early discoveries (the TFT miss signal
     *  arrives in a quarter cycle) only cost a scheduler bubble. */
    bool lateDiscovery = false;
};

/** Core microarchitecture parameters. */
struct CpuParams
{
    unsigned issueWidth = 4;
    unsigned robEntries = 168;       //!< Sandybridge (Table II)
    unsigned schedEntries = 54;
    unsigned squashPenaltyCycles = 9; //!< replay after a mis-scheduled load

    /**
     * Exposure coefficient of L1 hit latency: the pipeline exposes
     * k * x / (1 + x / L) cycles per access, where x = latency - 1.
     * Exposure starts linear (every extra cycle of a short hit delays
     * dependents) and saturates at k*L (the window hides most of a
     * very long 128KB VIPT hit) — which is exactly the gap SEESAW
     * closes (Table III).
     */
    double l1ExposureFactor = 0.10;

    /** Saturation constant L of the exposure curve (cycles). */
    double l1ExposureSaturation = 4.5;

    /** Fraction of the miss penalty hidden by memory-level
     *  parallelism and the ROB. */
    double missOverlapFraction = 0.55;

    /** In-order: small non-blocking-cache overlap on misses. */
    double inorderMissOverlap = 0.10;

    /** In-order exposure coefficient (same law, larger k and a more
     *  linear curve): only compiler scheduling and the second issue
     *  slot cover load-to-use latency — the reason SEESAW's latency
     *  cut is worth more on in-order cores (Fig 9). */
    double inorderL1ExposureFactor = 0.26;

    /** In-order saturation constant (cycles). */
    double inorderL1ExposureSaturation = 4.5;

    /** Exposed cycles of an L1 hit of @p lookup_cycles. */
    static double
    exposedHitCycles(unsigned lookup_cycles, double k, double sat)
    {
        if (lookup_cycles <= 1)
            return 0.0;
        const double x = static_cast<double>(lookup_cycles - 1);
        return k * x / (1.0 + x / sat);
    }

    /** ~Intel Sandybridge OoO core (Table II). */
    static CpuParams sandybridge();

    /** ~Intel Atom in-order core: dual-issue, 16-stage (Table II). */
    static CpuParams atom();
};

/**
 * Concrete core timing model: in-order or out-of-order per CoreKind.
 */
class CpuModel
{
  public:
    CpuModel(CoreKind kind, const CpuParams &params);
    virtual ~CpuModel() = default;

    CoreKind kind() const { return kind_; }

    /** Charge @p count non-memory instructions. */
    void
    retireNonMemory(std::uint64_t count)
    {
        instructions_ += count;
        if (kind_ == CoreKind::InOrder) {
            // Dual-issue: non-memory work retires issueWidth per cycle.
            cycles_ +=
                (count + params_.issueWidth - 1) / params_.issueWidth;
        } else {
            fractionalCycles_ +=
                static_cast<double>(count) / params_.issueWidth;
            carryWholeCycles();
        }
    }

    /** Charge one memory access. */
    void
    retireMemory(const MemTiming &timing)
    {
        if (kind_ == CoreKind::InOrder)
            retireMemoryInOrder(timing);
        else
            retireMemoryOoO(timing);
    }

    /** Add raw stall cycles (TLB shootdowns, cache sweeps, ...). */
    void
    addStallCycles(Cycles cycles)
    {
        cycles_ += cycles;
    }

    Cycles cycles() const { return cycles_; }
    std::uint64_t squashes() const { return stSquashes_->count(); }
    std::uint64_t missStalls() const { return stMissStalls_->count(); }
    std::uint64_t
    rescheduleBubbles() const
    {
        return stRescheduleBubbles_->count();
    }
    std::uint64_t instructions() const { return instructions_; }

    /** Zero the timing counters (end of a warmup phase). */
    void
    resetCounters()
    {
        cycles_ = 0;
        fractionalCycles_ = 0.0;
        instructions_ = 0;
        stats_.resetAll();
    }

    double
    ipc() const
    {
        return cycles_ ? static_cast<double>(instructions_) /
                             static_cast<double>(cycles_)
                       : 0.0;
    }

    const CpuParams &params() const { return params_; }
    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

  protected:
    CoreKind kind_;
    CpuParams params_;
    Cycles cycles_ = 0;
    double fractionalCycles_ = 0.0;
    std::uint64_t instructions_ = 0;
    StatGroup stats_;

    // Hot-path stat handles (registered once; see common/stats.hh).
    StatScalar *stMissStalls_;
    StatScalar *stSquashes_;
    StatScalar *stRescheduleBubbles_;

    /** Fold accumulated fractional cycles into the whole-cycle count. */
    void
    carryWholeCycles()
    {
        const auto whole = static_cast<Cycles>(fractionalCycles_);
        fractionalCycles_ -= static_cast<double>(whole);
        cycles_ += whole;
    }

    /** Charge for exceeding the scheduler's latency assumption: a
     *  full squash-and-replay when discovered late, a one-cycle
     *  re-arbitration bubble when discovered early. */
    void
    chargeSquashIfNeeded(unsigned actual_cycles,
                         unsigned assumed_cycles, bool late_discovery)
    {
        if (actual_cycles <= assumed_cycles ||
            params_.squashPenaltyCycles == 0) {
            return;
        }
        if (late_discovery) {
            cycles_ += params_.squashPenaltyCycles;
            ++*stSquashes_;
        } else {
            // Early discovery (e.g., the TFT miss signal): the
            // scheduler cancels the speculative wakeup and
            // re-arbitrates.
            cycles_ += 1;
            ++*stRescheduleBubbles_;
        }
    }

    void
    retireMemoryInOrder(const MemTiming &timing)
    {
        ++instructions_;
        // The in-order pipeline exposes much more of the load-to-use
        // latency than an OoO window: only compiler scheduling and the
        // second issue slot cover any of it.
        const double exposed_hit =
            1.0 +
            CpuParams::exposedHitCycles(
                timing.lookupCycles, params_.inorderL1ExposureFactor,
                params_.inorderL1ExposureSaturation);
        fractionalCycles_ += exposed_hit;
        carryWholeCycles();
        if (!timing.hit) {
            const double exposed =
                timing.missPenalty * (1.0 - params_.inorderMissOverlap);
            cycles_ += static_cast<Cycles>(exposed);
            ++*stMissStalls_;
        }
        // In-order issue has no speculative wakeup, hence no squashes —
        // this is why SEESAW's latency benefit is larger here (Fig 9).
    }

    void
    retireMemoryOoO(const MemTiming &timing)
    {
        ++instructions_;

        // The scheduler speculatively wakes dependents at the assumed
        // latency; arriving later than assumed forces a
        // squash-and-replay (Section IV-B3). This applies to slow
        // SEESAW hits under a fast assumption, to way-predictor
        // mispredicts, and to plain misses.
        const unsigned actual =
            timing.lookupCycles + timing.missPenalty;
        chargeSquashIfNeeded(actual, timing.assumedCycles,
                             timing.lateDiscovery);

        // Hit latency: the first cycle pipelines under issue; the
        // window hides most of the remainder, sub-linearly in the
        // latency.
        fractionalCycles_ += CpuParams::exposedHitCycles(
            timing.lookupCycles, params_.l1ExposureFactor,
            params_.l1ExposureSaturation);

        // Miss penalty: partially overlapped by MLP within the ROB
        // window.
        if (!timing.hit) {
            fractionalCycles_ +=
                timing.missPenalty *
                (1.0 - params_.missOverlapFraction);
            ++*stMissStalls_;
        }

        carryWholeCycles();
    }
};

/**
 * Dual-issue in-order core: memory latency is exposed in full.
 */
class InOrderCore final : public CpuModel
{
  public:
    explicit InOrderCore(const CpuParams &params = CpuParams::atom())
        : CpuModel(CoreKind::InOrder, params)
    {
    }
};

/**
 * Out-of-order core: hides part of the hit latency and overlaps
 * misses, but pays replay penalties on mis-scheduled loads.
 */
class OoOCore final : public CpuModel
{
  public:
    explicit OoOCore(const CpuParams &params = CpuParams::sandybridge())
        : CpuModel(CoreKind::OutOfOrder, params)
    {
    }
};

} // namespace seesaw

#endif // SEESAW_CPU_CPU_MODEL_HH
