/**
 * @file
 * One simulated system: N CoreComplexes (sim/core_complex.hh) over a
 * shared OS memory manager, a shared LLC and a pluggable coherence
 * fabric (coherence/fabric.hh).
 *
 * cores=1 reproduces the original single-core System bit-for-bit —
 * same construction order, same RNG salts, same per-access sequence —
 * with coherence modelled as the paper's stochastic probe load.
 * cores>1 runs one workload thread per core over the shared heap with
 * exact coherence (directory or snoopy broadcast), which is where
 * SEESAW's cheap 4-way probes are measured rather than sampled.
 *
 * SimEngine is the single-config view of the one engine,
 * MultiConfigEngine (sim/multi_config_engine.hh): it runs a
 * one-substrate pass and maps its accessors to that substrate.
 */

#ifndef SEESAW_SIM_SIM_ENGINE_HH
#define SEESAW_SIM_SIM_ENGINE_HH

#include "sim/multi_config_engine.hh"

namespace seesaw {

/**
 * One simulated system instance of config.cores cores. Construct,
 * then run().
 */
class SimEngine
{
  public:
    SimEngine(const SystemConfig &config, const WorkloadSpec &workload)
        : engine_({config}, workload)
    {
    }

    /** Execute the configured per-core instruction budget. */
    RunResult run() { return engine_.run().front(); }

    /**
     * This core's decorrelated RNG seed. Core 0 keeps the config seed
     * unchanged (single-core bit-compatibility); other cores get a
     * SplitMix64 finalizer over (seed, core) so adjacent cores'
     * reference streams share no low-bit structure.
     */
    static std::uint64_t coreSeed(std::uint64_t seed, unsigned core);

    /** @name Component access (tests / advanced drivers). */
    /// @{
    OsMemoryManager &os() { return engine_.os(); }
    L1Cache &l1(unsigned core = 0) { return complex(core).l1(); }
    /** nullptr unless an SEESAW kind (cached; hot path). */
    SeesawCache *seesawL1(unsigned core = 0)
    {
        return complex(core).seesawL1();
    }
    EnergyModel &energy() { return engine_.energy(0); }
    const SystemConfig &config() const { return engine_.config(0); }
    Asid asid() const { return engine_.asid(); }
    unsigned cores() const { return engine_.cores(); }
    CoreComplex &complex(unsigned core)
    {
        return engine_.complex(0, core);
    }

    /** The coherence fabric, or nullptr when none is modelled (cores=1,
     *  or CoherenceKind::None). */
    CoherenceFabric *fabric() { return engine_.fabric(0); }

    /** The exact directory, or nullptr unless a cores>1 directory
     *  fabric is active. */
    ExactDirectory *directory() { return engine_.directory(0); }

    /**
     * One-shot full bidirectional MOESI cross-check of the directory
     * against every L1 (check/coherence_audits.hh). Always true when
     * no directory fabric is active.
     */
    bool checkDirectoryInvariant();

    /** The invariant auditor, or nullptr when audits are off. */
    check::InvariantAuditor *auditor() { return engine_.auditor(0); }
    /// @}

  private:
    MultiConfigEngine engine_;
};

} // namespace seesaw

#endif // SEESAW_SIM_SIM_ENGINE_HH
