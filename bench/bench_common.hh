/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every simulation bench puts its points into one CampaignSpec, runs
 * it with runBenchCampaign() (SEESAW_JOBS workers, results/<bench>.json
 * and .csv) and builds its table from the results by cell name. Each
 * runs with a modest default instruction budget so the whole suite
 * finishes quickly; set SEESAW_INSTRUCTIONS (and optionally
 * SEESAW_MEM_BYTES) to crank a full reproduction.
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

/** The organisation @p token names: its label ("32KB") or the label
 *  without its "B" in either case ("32K", "32k"); otherwise
 *  badValue(@p flag). */
inline const CacheOrg &
parseOrg(const char *flag, const std::string &token)
{
    for (const auto &org : kCacheOrgs) {
        std::string kilo(org.label);
        kilo.pop_back();
        std::string lower = kilo;
        lower.back() = 'k';
        if (token == org.label || token == kilo || token == lower)
            return org;
    }
    badValue(flag, token);
}

/** The three evaluated frequencies. */
inline const double kFrequencies[] = {1.33, 2.80, 4.00};

/**
 * SEESAW_INSTRUCTIONS and SEESAW_MEM_BYTES, read once before main() in
 * every program built on this header: a malformed knob exits 1 before
 * a bench prints its banner, not after, so stdout stays empty.
 */
inline const bool kBenchKnobsChecked =
    (experimentInstructions(1), experimentMemBytes(1), true);

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

/** Add @p cfg's VIPT-baseline and SEESAW variants to @p spec, labelled
 *  @p label + "/vipt" and @p label + "/seesaw". */
inline void
addDesignPair(harness::CampaignSpec &spec, const std::string &label,
              const SystemConfig &cfg)
{
    for (L1Kind kind : {L1Kind::ViptBaseline, L1Kind::Seesaw})
        spec.variant(label + "/" + nameOf(kDesignNames, kind),
                     withDesign(cfg, kind));
}

/**
 * Run @p spec with the bench defaults — SEESAW_JOBS-many workers
 * (hardware_concurrency when unset), one fresh engine per cell and
 * progress on stderr — and archive JSON/CSV sinks under results/
 * (SEESAW_RESULTS_DIR).
 */
inline harness::CampaignOutcome
runBenchCampaign(const harness::CampaignSpec &spec)
{
    return harness::CampaignRunner().runAndWrite(spec);
}

/**
 * The cells named @p prefix + "/vipt" and @p prefix + "/seesaw" (a
 * workload's addDesignPair() cells, or a hand-named pair), compared as
 * compareBaselineVsSeesaw() compares them.
 */
inline DesignComparison
findDesignPair(const harness::CampaignOutcome &outcome,
               const std::string &prefix)
{
    DesignComparison cmp;
    cmp.baseline = harness::findResult(outcome.results, prefix + "/vipt");
    cmp.seesaw = harness::findResult(outcome.results, prefix + "/seesaw");
    cmp.runtimeImprovementPct =
        runtimeImprovementPercent(cmp.baseline, cmp.seesaw);
    cmp.energySavedPct = energySavedPercent(cmp.baseline, cmp.seesaw);
    return cmp;
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
 * Parse the argv of the figure binaries that take @p policy: they
 * accept --replacement and --prefetch and rerun their figure under
 * that substrate. Every other argument is a usage error.
 */
inline void
parseBenchArgs(int argc, char **argv, PolicyArgs &policy)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--replacement") {
            policy.replacement.kind = parseName(
                kReplacementNames, "replacement", takeValue(argc, argv, i));
        } else if (arg == "--prefetch") {
            policy.prefetch.kind = parseName(
                kPrefetchNames, "prefetcher", takeValue(argc, argv, i));
        } else {
            std::fprintf(stderr,
                         "usage: %s [--replacement lru|fifo|random|"
                         "srrip] [--prefetch none|nextline|stride]\n",
                         argv[0]);
            std::exit(arg == "--help" || arg == "-h" ? 0 : 1);
        }
    }
}

} // namespace seesaw::bench

#endif // SEESAW_BENCH_BENCH_COMMON_HH
