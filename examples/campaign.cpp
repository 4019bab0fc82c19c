/**
 * @file
 * Command-line campaign driver: describe a sweep (workloads × designs
 * × cache orgs × frequencies × memhog levels × seeds) on the command
 * line, execute every cell in parallel, print a summary table and
 * archive machine-readable results. The full paper reproduction
 * becomes one command:
 *
 *   $ ./build/examples/campaign --jobs 8
 *   $ ./build/examples/campaign --campaign smoke \
 *         --workloads redis,mcf --l1 32K --jobs 2 --instructions 50000
 *   $ SEESAW_JOBS=16 ./build/examples/campaign --designs vipt,seesaw,pipt
 *
 * Outputs results/<campaign>.json and results/<campaign>.csv
 * (SEESAW_RESULTS_DIR overrides the directory).
 *
 * With --store DIR results additionally land in a durable result
 * store as each cell finishes, which makes the campaign resumable:
 *
 *   $ ./build/examples/campaign --store results/store --jobs 4
 *   ^C                                  # finish in-flight cells, exit
 *   $ ./build/examples/campaign --store results/store --jobs 4 --resume
 *                                       # only the missing cells run
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign_grid.hh"
#include "store/store_sink.hh"

namespace {

using namespace seesaw;

void
usage()
{
    std::printf(
        "usage: campaign [options]\n"
        "  --campaign NAME     name for results/<NAME>.json|csv "
        "(default 'campaign')\n"
        "  --workloads a,b,..  subset of the 16 paper workloads "
        "(default all)\n"
        "  --designs a,b,..    vipt | pipt | sipt | seesaw | wp | "
        "wpseesaw\n"
        "                      (default vipt,seesaw)\n"
        "  --l1 a,b,..         32K | 64K | 128K (default all three)\n"
        "  --freq a,b,..       GHz list (default 1.33)\n"
        "  --memhog a,b,..     fragmentation fractions (default 0)\n"
        "  --seeds a,b,..      RNG seeds (default 1)\n"
        "  --replacement a,b,. lru | fifo | random | srrip "
        "(default lru)\n"
        "  --prefetch a,b,..   none | nextline | stride "
        "(default none)\n"
        "  --instructions N    per-cell instruction budget, per core "
        "(default\n"
        "                      300000; SEESAW_INSTRUCTIONS also "
        "respected)\n"
        "  --mc-cells W:C:D,.. explicit multi-core cells appended to "
        "the grid,\n"
        "                      e.g. tunk:4:seesaw runs workload tunk "
        "on 4 cores\n"
        "                      with directory coherence (labelled "
        "tunk/c4/seesaw)\n"
        "  --jobs N            worker threads (default SEESAW_JOBS, "
        "else\n"
        "                      hardware_concurrency; 1 = serial)\n"
        "  --one-pass on|off   batch cells sharing a front end "
        "(workload, seed,\n"
        "                      cores, OS policy) into single "
        "multi-config passes;\n"
        "                      results are bit-identical (default "
        "off)\n"
        "  --audit MODE        invariant audits: off | end | periodic "
        "|\n"
        "                      paranoid (default off; needs a "
        "-DSEESAW_AUDIT=ON build)\n"
        "  --audit-period N    events between periodic audits "
        "(default 65536)\n"
        "  --out DIR           results directory (default results/)\n"
        "  --store DIR         also record every finished cell in a "
        "durable\n"
        "                      result store (enables --resume)\n"
        "  --resume            skip cells whose (workload, config, "
        "seed) the\n"
        "                      store already holds\n"
        "  --list              print the expanded cells and exit\n"
        "  --quiet             suppress stderr progress\n");
}

void
printRecap(const harness::CampaignOutcome &outcome)
{
    TableReporter table({"cell", "ipc", "l1 mpki", "cover",
                         "energy uJ", "wall s"});
    for (const auto &cell : outcome.results) {
        table.addRow(
            {cell.name, TableReporter::fmt(cell.result.ipc, 3),
             TableReporter::fmt(cell.result.l1Mpki, 1),
             TableReporter::pct(100.0 * cell.result.superpageCoverage,
                                0),
             TableReporter::fmt(cell.result.energyTotalNj / 1000.0, 1),
             TableReporter::fmt(cell.wallSeconds, 2)});
    }
    table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    grid::GridOptions gridOptions;
    harness::RunnerOptions options;
    std::string out_dir;
    std::string store_dir;
    bool resume = false;
    bool list_only = false;

    auto need_value = [&](int i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(1);
        }
        return argv[i + 1];
    };

    for (int i = 1; i < argc; ++i) {
        if (gridOptions.parseArg(argc, argv, i))
            continue;
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--jobs") {
            options.jobs = std::atoi(need_value(i++));
        } else if (arg == "--one-pass") {
            options.onePass =
                bench::parseOnOff("--one-pass", need_value(i++));
        } else if (arg == "--out") {
            out_dir = need_value(i++);
        } else if (arg == "--store") {
            store_dir = need_value(i++);
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--quiet") {
            options.progress = false;
        } else {
            std::fprintf(stderr, "unknown option %s (try --help)\n",
                         arg.c_str());
            return 1;
        }
    }
    if (resume && store_dir.empty()) {
        std::fprintf(stderr, "--resume needs --store DIR\n");
        return 1;
    }

    const harness::CampaignSpec spec = gridOptions.buildSpec();
    const std::string campaign_name = spec.name();
    const auto cells = spec.cells();
    if (list_only) {
        for (const auto &cell : cells)
            std::printf("%s\n", cell.name.c_str());
        std::printf("%zu cells\n", cells.size());
        return 0;
    }

    harness::installStopSignalHandlers();
    harness::CampaignRunner runner(options);
    harness::CampaignOutcome outcome;
    int rc = 0;

    if (store_dir.empty()) {
        // Classic one-shot path: threads + JSON/CSV sinks only.
        std::fprintf(stderr, "[%s] %zu cells on %u worker%s\n",
                     campaign_name.c_str(), cells.size(),
                     runner.effectiveJobs(),
                     runner.effectiveJobs() == 1 ? "" : "s");
        outcome = runner.runAndWrite(spec, out_dir);
        rc = outcome.interrupted ? 130 : 0;
    } else {
        // Store-backed: load the store once (a corrupt store stops the
        // campaign before any cell runs), skip the cells it already
        // holds under --resume, run the rest, upserting as each cell
        // finishes.
        store::StoredSplit split;
        if (std::string error =
                store::splitStored(store_dir, cells, split);
            !error.empty()) {
            std::fprintf(stderr, "campaign: %s\n", error.c_str());
            return 1;
        }
        if (!resume) {
            split.toRun = cells;
            split.stored = 0;
        }

        harness::CampaignMetadata meta;
        meta.campaign = campaign_name;
        meta.gitDescribe = harness::gitDescribe();
        meta.jobs = runner.effectiveJobs();
        store::StoreSink sink(store_dir, meta, "driver");
        options.onCellDone = sink.hook();
        harness::CampaignRunner storeRunner(options);

        std::fprintf(stderr,
                     "[%s] %zu cells (%zu already in store) on %u "
                     "thread%s\n",
                     campaign_name.c_str(), split.toRun.size(),
                     split.stored, storeRunner.effectiveJobs(),
                     storeRunner.effectiveJobs() == 1 ? "" : "s");
        const auto partial =
            storeRunner.runCells(campaign_name, split.toRun);

        // The sinks and recap come from the store so they cover both
        // freshly-run and previously-stored cells.
        if (std::string error = store::collectOutcome(
                store_dir, campaign_name, cells, outcome);
            !error.empty()) {
            std::fprintf(stderr, "campaign: %s\n", error.c_str());
            return 1;
        }
        outcome.meta.jobs = meta.jobs;
        outcome.meta.wallSeconds = partial.meta.wallSeconds;
        writeCampaignSinks(outcome.meta, outcome.results, out_dir);
        if (partial.interrupted) {
            std::fprintf(stderr,
                         "[%s] interrupted after %zu/%zu cells; "
                         "rerun with --resume to finish\n",
                         campaign_name.c_str(),
                         partial.results.size() + split.stored,
                         cells.size());
            rc = 130;
        }
    }

    printRecap(outcome);
    std::printf("\n%zu/%zu cells in %.1fs on %u worker%s (git %s)\n",
                outcome.results.size(), cells.size(),
                outcome.meta.wallSeconds, outcome.meta.jobs,
                outcome.meta.jobs == 1 ? "" : "s",
                outcome.meta.gitDescribe.c_str());
    return rc;
}
