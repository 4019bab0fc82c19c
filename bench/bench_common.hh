/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every bench runs with a modest default instruction budget so the
 * whole suite finishes quickly; set SEESAW_INSTRUCTIONS (and
 * optionally SEESAW_MEM_BYTES) to crank a full reproduction.
 */

#ifndef SEESAW_BENCH_BENCH_COMMON_HH
#define SEESAW_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "enum_names.hh"
#include "harness/runner.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/sim_engine.hh"

namespace seesaw::bench {

/** The three evaluated cache organisations (Table III). */
struct CacheOrg
{
    std::uint64_t sizeBytes;
    unsigned assoc;
    const char *label;
};

inline const CacheOrg kCacheOrgs[] = {
    {32 * 1024, 8, "32KB"},
    {64 * 1024, 16, "64KB"},
    {128 * 1024, 32, "128KB"},
};

/** The three evaluated frequencies. */
inline const double kFrequencies[] = {1.33, 2.80, 4.00};

/** Default bench configuration for one (org, freq) point. */
inline SystemConfig
makeConfig(const CacheOrg &org, double freq_ghz,
           std::uint64_t default_instr = 300'000)
{
    SystemConfig cfg;
    cfg.l1SizeBytes = org.sizeBytes;
    cfg.l1Assoc = org.assoc;
    cfg.freqGhz = freq_ghz;
    cfg.instructions = experimentInstructions(default_instr);
    cfg.os.memBytes = experimentMemBytes(4ULL << 30);
    cfg.seed = 1;
    return cfg;
}

/** @p cfg with its L1 design switched to @p kind. */
inline SystemConfig
withDesign(SystemConfig cfg, L1Kind kind)
{
    cfg.l1Kind = kind;
    return cfg;
}

/**
 * Run @p spec with the bench defaults — SEESAW_JOBS-many workers
 * (hardware_concurrency when unset) and progress on stderr — and
 * archive JSON/CSV sinks under results/ (SEESAW_RESULTS_DIR).
 */
inline harness::CampaignOutcome
runBenchCampaign(const harness::CampaignSpec &spec,
                 harness::RunnerOptions options = {})
{
    return harness::CampaignRunner(std::move(options)).runAndWrite(spec);
}

/** Parse an on|off flag value (fatal otherwise). */
inline bool
parseOnOff(const char *flag, const std::string &value)
{
    if (value == "on")
        return true;
    if (value == "off")
        return false;
    std::fprintf(stderr, "%s wants on|off, got %s\n", flag,
                 value.c_str());
    std::exit(1);
}

/** Replacement/prefetch overrides a figure binary applies to every
 *  config it builds (defaults reproduce the pinned LRU/no-prefetch
 *  paper numbers). */
struct PolicyArgs
{
    ReplacementParams replacement;
    PrefetchParams prefetch;

    SystemConfig
    apply(SystemConfig cfg) const
    {
        cfg.replacement = replacement;
        cfg.prefetch = prefetch;
        return cfg;
    }
};

/**
 * Parse the argv the figure binaries share: --one-pass on|off selects
 * whether cells with a common front end run as single multi-config
 * passes (RunnerOptions::onePass; results are bit-identical either
 * way, the sweep just makes one trace pass per group). Binaries that
 * pass @p policy additionally accept --replacement and --prefetch and
 * rerun their figure under that substrate.
 */
inline harness::RunnerOptions
parseBenchArgs(int argc, char **argv, PolicyArgs *policy = nullptr)
{
    harness::RunnerOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--one-pass" && i + 1 < argc) {
            options.onePass = parseOnOff("--one-pass", argv[++i]);
        } else if (policy && arg == "--replacement" && i + 1 < argc) {
            policy->replacement.kind =
                parseName(kReplacementNames, "replacement", argv[++i]);
        } else if (policy && arg == "--prefetch" && i + 1 < argc) {
            policy->prefetch.kind =
                parseName(kPrefetchNames, "prefetcher", argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--one-pass on|off]%s\n", argv[0],
                         policy ? " [--replacement lru|fifo|random|"
                                  "srrip] [--prefetch none|nextline|"
                                  "stride]"
                                : "");
            std::exit(arg == "--help" || arg == "-h" ? 0 : 1);
        }
    }
    return options;
}

} // namespace seesaw::bench

#endif // SEESAW_BENCH_BENCH_COMMON_HH
