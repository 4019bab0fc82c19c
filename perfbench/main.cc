/**
 * @file
 * perfbench_sim: the measuring half of the simulator benchmark
 * (perfbench/run.py builds it, runs it and turns its raw samples into
 * metrics).
 *
 *   perfbench_sim --workload NAME --seed N --seconds S --trace 0|1
 *                 --golden PATH [--spans PATH] [--budget-scale F]
 *   perfbench_sim --self-test
 *
 * --trace 0 repeats whole workload iterations for S seconds and records
 * each one's setup, run and wall time. --trace 1 repeats traced
 * iterations instead: the traced replay (replay.hh) with per-layer
 * spans, the setup split, and for fig12_sweep the one-pass engines and
 * the campaign runner. Every cell either mode simulates passes through
 * the correctness gate (gate.hh). Output: one JSON object on stdout.
 *
 * --self-test is the gate's mutation test: perturbing any RunResult
 * field of a real run must count the cell as failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gate.hh"
#include "harness/json.hh"
#include "harness/runner.hh"
#include "harness/sinks.hh"
#include "mem/memhog.hh"
#include "replay.hh"
#include "sim/experiment.hh"
#include "sim/multi_config_engine.hh"
#include "workloads.hh"

namespace {

using namespace seesaw;
using namespace perfbench;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Warmup + measured instructions × cores: one cell's simulated work. */
std::uint64_t
cellInstructions(const SystemConfig &cfg)
{
    return (cfg.warmupInstructions + cfg.instructions) * cfg.cores;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double budgetScale = 1.0;
    std::string golden;
    std::string spans;
    bool selfTest = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_sim: %s\nusage: perfbench_sim --workload NAME "
                 "--seed N --seconds S --trace 0|1 --golden PATH "
                 "[--spans PATH] [--budget-scale F]\n"
                 "       perfbench_sim --self-test\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") {
            o.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = v;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed wants a non-negative integer");
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o.seconds > 0.0))
                usage("--seconds wants a positive number");
        } else if (arg == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--budget-scale") {
            o.budgetScale = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o.budgetScale > 0.0) ||
                o.budgetScale > 1.0)
                usage("--budget-scale wants a number in (0, 1]");
        } else if (arg == "--golden") {
            o.golden = v;
        } else if (arg == "--spans") {
            o.spans = v;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!o.selfTest && (o.workload.empty() || o.golden.empty()))
        usage("--workload and --golden are required");
    return o;
}

/** Sums of the simulator's own counters over one iteration's cells. */
struct CounterSums
{
    std::uint64_t l1Accesses = 0, l1Hits = 0, l2Accesses = 0, l2Hits = 0,
                  llcAccesses = 0, llcHits = 0, tftLookups = 0,
                  tftHits = 0, probes = 0, probeHits = 0,
                  invalidations = 0, ownerSupplies = 0;

    void
    add(const RunResult &r)
    {
        l1Accesses += r.l1Accesses;
        l1Hits += r.l1Hits;
        l2Accesses += r.l2Accesses;
        l2Hits += r.l2Hits;
        llcAccesses += r.llcAccesses;
        llcHits += r.llcHits;
        tftLookups += r.tftLookups;
        tftHits += r.tftHits;
        probes += r.probes;
        probeHits += r.probeHits;
        invalidations += r.probeInvalidations;
        ownerSupplies += r.ownerSupplies;
    }
};

/** Host time of the engine constructor's phases (sums over cells). */
struct SetupSplit
{
    double osInitS = 0, memhogS = 0, heapMapS = 0, complexBuildS = 0;
};

/**
 * Replay the engine constructor's public calls for @p cells (one cell,
 * or a one-pass group sharing a front end) and time each phase.
 * @return the resulting superpage coverage, which must equal the real
 *         engine's before it runs.
 */
double
replaySetup(const std::vector<const Cell *> &cells, SetupSplit &split)
{
    const SystemConfig &front = cells.front()->config;
    const WorkloadSpec &w = cells.front()->workload;

    Clock::time_point t = Clock::now();
    OsParams os_params = front.os;
    os_params.seed ^= front.seed;
    OsMemoryManager os(os_params);
    split.osInitS += since(t);

    t = Clock::now();
    Memhog memhog(os, front.memhog);
    memhog.consume(front.memhogFraction);
    split.memhogS += since(t);

    t = Clock::now();
    const Asid asid = os.createProcess();
    const Addr heap_base = Addr{1} << 40;
    Addr text_base = 0;
    if (front.useOneGbHeap) {
        const Addr gb = Addr{1} << 30;
        Addr off = 0;
        while (off < w.footprintBytes &&
               os.mapOneGbPage(asid, heap_base + off))
            off += gb;
        if (off < w.footprintBytes) {
            os.mapAnonymous(asid, heap_base + off, w.footprintBytes - off,
                            w.thpEligibleFraction);
        }
    } else {
        os.mapAnonymous(asid, heap_base, w.footprintBytes,
                        w.thpEligibleFraction);
    }
    if (front.modelInstructionCache) {
        text_base = Addr{2} << 40;
        os.mapAnonymous(asid, text_base, w.codeFootprintBytes,
                        front.codeThpEligibleFraction);
    }
    split.heapMapS += since(t);

    t = Clock::now();
    const LatencyTable latency(TechNode::Intel22);
    std::vector<std::unique_ptr<EnergyModel>> energies;
    std::vector<std::unique_ptr<SetAssocCache>> llcs;
    std::vector<std::unique_ptr<CoreComplex>> complexes;
    for (const Cell *cell : cells) {
        const SystemConfig &cfg = cell->config;
        energies.push_back(std::make_unique<EnergyModel>(latency.sram()));
        SetAssocCache *llc = nullptr;
        if (cfg.cores > 1) {
            llcs.push_back(std::make_unique<SetAssocCache>(
                cfg.outer.llcSizeBytes, cfg.outer.llcAssoc));
            llc = llcs.back().get();
        }
        for (unsigned c = 0; c < cfg.cores; ++c) {
            complexes.push_back(std::make_unique<CoreComplex>(
                cfg, cell->workload, latency, os, *energies.back(), asid,
                heap_base, text_base, static_cast<CoreId>(c),
                SimEngine::coreSeed(cfg.seed, c), llc));
        }
    }
    split.complexBuildS += since(t);
    return os.superpageCoverage(asid);
}

std::string
coverageProblem(double replayed, double engine)
{
    if (replayed == engine)
        return {};
    std::ostringstream os;
    os.precision(17);
    os << "setup replay coverage " << replayed << " != engine " << engine;
    return os.str();
}

/** Raw samples of one benchmark run, emitted as JSON for run.py. */
struct Samples
{
    struct Iteration
    {
        double setupS = 0, runS = 0, wallS = 0;
        std::uint64_t cellInstructions = 0;
    };
    std::vector<Iteration> iterations;

    // --trace 1 only.
    SpanRecorder recorder{4096, 256};
    ReplayCounts traced;     //!< counts from the span-recorded replays
    ReplayCounts phases;     //!< phase times from span-free replays
    double untracedRunS = 0; //!< SimEngine::run() of the replayed cells
    double tracedRunS = 0;   //!< the span-recorded replays of them
    std::vector<SetupSplit> setup;
    std::vector<double> onePassSetupS, onePassRunS;
    std::vector<double> queueWaitS, busyRatio;
    CounterSums counters;
};

class Bench
{
  public:
    Bench(const Options &opt, const Workload &wl, Gate &gate)
        : opt_(opt), wl_(wl), gate_(gate), reference_(wl.cells.size())
    {
        for (const Cell &cell : wl_.cells) {
            harnessSpec_.cell(cell.name, cell.workload, cell.config);
        }
        harnessCells_ = harnessSpec_.cells();
    }

    /** Gate checks made once, before timing. */
    void
    preflight()
    {
        store::JsonValue golden;
        std::string error;
        if (!loadCampaign(opt_.golden, golden, error)) {
            gate_.record("golden", {error});
        } else {
            for (const Cell &cell : wl_.golden) {
                const RunResult r = simulate(cell.workload, cell.config);
                gate_.record("golden " + cell.name,
                             {goldenProblem(golden, cell.name, r),
                              identityProblem(cell.config, r)});
            }
        }
        if (!wl_.groups.empty()) {
            // One-pass results must equal per-config simulate(); the
            // per-config runs are the reference every repeat meets.
            for (std::size_t i = 0; i < wl_.cells.size(); ++i) {
                const Cell &cell = wl_.cells[i];
                reference_[i] = simulate(cell.workload, cell.config);
                gate_.record("per-config " + cell.name,
                             {identityProblem(cell.config, *reference_[i])});
            }
        }
    }

    void
    run(Samples &s)
    {
        // One untimed iteration first. glibc serves large blocks with
        // fresh mmaps until its adaptive threshold has seen blocks of
        // that size freed; after this the timed iterations meet the
        // allocator in the state a long campaign process runs in.
        Samples discarded;
        timedIteration(discarded);

        const Clock::time_point start = Clock::now();
        do {
            if (opt_.trace)
                tracedIteration(s);
            else
                timedIteration(s);
        } while (since(start) < opt_.seconds);
        if (opt_.trace) {
            for (const auto &r : reference_)
                s.counters.add(*r);
        }
    }

  private:
    const Options &opt_;
    const Workload &wl_;
    Gate &gate_;
    std::vector<std::optional<RunResult>> reference_;
    harness::CampaignSpec harnessSpec_{"perfbench"};
    std::vector<harness::Cell> harnessCells_;

    /** Gate one cell result against the cell's reference: the
     *  per-config run for one-pass workloads, else the first repeat. */
    bool
    check(std::size_t i, const std::string &what, const RunResult &r)
    {
        const Cell &cell = wl_.cells[i];
        std::vector<std::string> problems{identityProblem(cell.config, r)};
        if (reference_[i])
            problems.push_back(diffResults(*reference_[i], r));
        else
            reference_[i] = r;
        return gate_.record(what + " " + cell.name, problems);
    }

    /** One-pass on, one job: the engine is single-threaded, and one
     *  job keeps the figure steady on a shared host. */
    static harness::RunnerOptions
    runnerOptions()
    {
        harness::RunnerOptions ro;
        ro.jobs = 1;
        ro.progress = false;
        ro.onePass = true;
        return ro;
    }

    std::vector<SystemConfig>
    groupConfigs(const std::vector<std::size_t> &group) const
    {
        std::vector<SystemConfig> configs;
        for (std::size_t i : group)
            configs.push_back(wl_.cells[i].config);
        return configs;
    }

    void
    timedIteration(Samples &s)
    {
        Samples::Iteration it;
        if (wl_.groups.empty()) {
            const Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < wl_.cells.size(); ++i) {
                const Cell &cell = wl_.cells[i];
                Clock::time_point t = Clock::now();
                SimEngine engine(cell.config, cell.workload);
                it.setupS += since(t);
                t = Clock::now();
                const RunResult r = engine.run();
                it.runS += since(t);
                it.cellInstructions += cellInstructions(cell.config);
                check(i, "repeat", r);
            }
            it.wallS = since(t0);
        } else {
            // What a campaign user waits for: the runner.
            const Clock::time_point t0 = Clock::now();
            const harness::CampaignOutcome outcome =
                harness::CampaignRunner(runnerOptions())
                    .runCells("perfbench", harnessCells_);
            it.wallS = since(t0);
            checkOutcome(outcome);

            // The same groups engine by engine, to split setup from run.
            for (const auto &group : wl_.groups) {
                Clock::time_point t = Clock::now();
                MultiConfigEngine engine(groupConfigs(group),
                                         wl_.cells[group.front()].workload);
                it.setupS += since(t);
                t = Clock::now();
                const std::vector<RunResult> rs = engine.run();
                it.runS += since(t);
                for (std::size_t k = 0; k < group.size(); ++k) {
                    it.cellInstructions +=
                        cellInstructions(wl_.cells[group[k]].config);
                    check(group[k], "one-pass", rs[k]);
                }
            }
        }
        s.iterations.push_back(it);
    }

    void
    checkOutcome(const harness::CampaignOutcome &outcome)
    {
        if (outcome.results.size() != wl_.cells.size()) {
            gate_.record("runner", {"runner returned " +
                                    std::to_string(outcome.results.size()) +
                                    " of " +
                                    std::to_string(wl_.cells.size()) +
                                    " cells"});
            return;
        }
        for (std::size_t i = 0; i < wl_.cells.size(); ++i)
            check(i, "runner", outcome.results[i].result);
    }

    /** Untraced run(), span-free replay and traced replay of one cell;
     *  all three must agree bit for bit. */
    void
    replayCell(std::size_t i, Samples &s)
    {
        const Cell &cell = wl_.cells[i];
        RunResult untraced;
        {
            SimEngine engine(cell.config, cell.workload);
            const Clock::time_point t = Clock::now();
            untraced = engine.run();
            s.untracedRunS += since(t);
        }
        check(i, "untraced", untraced);
        {
            SimEngine engine(cell.config, cell.workload);
            const RunResult r = replayRun(engine, cell.workload, nullptr,
                                          s.phases);
            gate_.record("phase replay " + cell.name,
                         {diffResults(untraced, r)});
        }
        {
            SimEngine engine(cell.config, cell.workload);
            ReplayCounts counts;
            const Clock::time_point t = Clock::now();
            const RunResult r =
                replayRun(engine, cell.workload, &s.recorder, counts);
            s.tracedRunS += since(t);
            s.traced += counts;
            gate_.record("traced replay " + cell.name,
                         {diffResults(untraced, r)});
        }
    }

    void
    tracedIteration(Samples &s)
    {
        SetupSplit split;
        if (wl_.groups.empty()) {
            for (std::size_t i = 0; i < wl_.cells.size(); ++i) {
                const Cell &cell = wl_.cells[i];
                const double replayed = replaySetup({&cell}, split);
                SimEngine engine(cell.config, cell.workload);
                gate_.record("setup replay " + cell.name,
                             {coverageProblem(replayed,
                                              engine.os().superpageCoverage(
                                                  engine.asid()))});
            }
        } else {
            double setup_s = 0, run_s = 0;
            for (const auto &group : wl_.groups) {
                std::vector<const Cell *> members;
                for (std::size_t i : group)
                    members.push_back(&wl_.cells[i]);
                const double replayed = replaySetup(members, split);

                Clock::time_point t = Clock::now();
                MultiConfigEngine engine(groupConfigs(group),
                                         members.front()->workload);
                setup_s += since(t);
                gate_.record("setup replay group " + members.front()->name,
                             {coverageProblem(
                                 replayed, engine.os().superpageCoverage(
                                               engine.asid()))});
                t = Clock::now();
                const std::vector<RunResult> rs = engine.run();
                run_s += since(t);
                for (std::size_t k = 0; k < group.size(); ++k)
                    check(group[k], "one-pass", rs[k]);
            }
            s.onePassSetupS.push_back(setup_s);
            s.onePassRunS.push_back(run_s);
            tracedRunner(s);
        }
        s.setup.push_back(split);
        for (std::size_t i = 0; i < wl_.cells.size(); ++i)
            replayCell(i, s);
    }

    /** The campaign runner, with per-cell completion times recorded to
     *  derive its queue wait and busy share. */
    void
    tracedRunner(Samples &s)
    {
        // Keyed by cell name: callbacks fire in completion order, results
        // come back in cell order.
        std::map<std::string, std::size_t> group_size;
        for (const auto &group : wl_.groups)
            for (std::size_t i : group)
                group_size[wl_.cells[i].name] = group.size();

        std::map<std::string, double> done_at;
        Clock::time_point start;
        harness::RunnerOptions ro = runnerOptions();
        ro.onCellDone = [&](const harness::CellResult &r) {
            done_at[r.name] = since(start);
        };
        start = Clock::now();
        const harness::CampaignOutcome outcome =
            harness::CampaignRunner(ro).runCells("perfbench", harnessCells_);
        checkOutcome(outcome);
        if (done_at.size() != outcome.results.size())
            return;

        // A grouped cell's wallSeconds is its even share of the group's
        // pass, so the pass began group-size shares before it finished.
        double busy = 0, wait = 0;
        for (const harness::CellResult &r : outcome.results) {
            const auto done = done_at.find(r.name);
            if (done == done_at.end()) {
                gate_.record("runner", {"no completion time for " + r.name});
                return;
            }
            const auto size = group_size.find(r.name);
            const double share =
                size == group_size.end() ? 1.0 : double(size->second);
            busy += r.wallSeconds;
            wait += std::max(0.0, done->second - r.wallSeconds * share);
        }
        s.queueWaitS.push_back(wait / outcome.results.size());
        s.busyRatio.push_back(busy / (ro.jobs * outcome.meta.wallSeconds));
    }
};

std::uint64_t
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss);
}

void
emitDouble(harness::JsonWriter &w, std::string_view key,
           const std::vector<double> &v)
{
    w.key(key).beginArray();
    for (double x : v)
        w.value(x);
    w.endArray();
}

void
emit(const Options &opt, const Gate &gate, const Samples &s)
{
    std::ostringstream out;
    harness::JsonWriter w(out);
    w.beginObject();
    w.field("workload", opt.workload);
    w.field("seed", opt.seed);
    w.field("trace", opt.trace);
    w.field("cells_attempted", gate.attempted());
    w.field("cells_failed", gate.failed());
    w.key("failures").beginArray();
    for (const std::string &r : gate.reasons())
        w.value(r);
    w.endArray();
    w.field("peak_rss_kb", peakRssKb());
    w.key("iterations").beginArray();
    for (const auto &it : s.iterations) {
        w.beginObject();
        w.field("setup_s", it.setupS);
        w.field("run_s", it.runS);
        w.field("wall_s", it.wallS);
        w.field("cell_instructions", it.cellInstructions);
        w.endObject();
    }
    w.endArray();
    if (opt.trace) {
        w.key("traced").beginObject();
        w.field("iterations", s.setup.size());
        const SpanRecorder::Overhead overhead = SpanRecorder::calibrate();
        w.field("span_empty_ns", overhead.emptyNs);
        w.field("span_per_child_ns", overhead.perChildNs);
        w.key("layers").beginObject();
        for (unsigned l = 0; l < kLayerCount; ++l) {
            const auto &t = s.recorder.totals()[l];
            w.key(kLayerNames[l]).beginObject();
            w.field("self_ns", t.selfNs);
            w.field("spans", t.spans);
            w.field("child_spans", t.childSpans);
            w.endObject();
        }
        w.endObject();
        w.key("replay").beginObject();
        w.field("steps", s.traced.steps);
        w.field("tlb_lookups", s.traced.tlbLookups);
        w.field("tlb_l1_hits", s.traced.tlbL1Hits);
        w.field("tlb_walks", s.traced.tlbWalks);
        w.field("tlb_faults", s.traced.tlbFaults);
        w.field("os_events", s.traced.osEvents);
        w.endObject();
        w.key("phases").beginObject();
        w.field("steps", s.phases.steps);
        w.field("warmup_s", s.phases.warmupS);
        w.field("measured_s", s.phases.measuredS);
        w.field("collect_s", s.phases.collectS);
        w.field("measured_steps", s.phases.measuredSteps);
        w.endObject();
        w.field("untraced_run_s", s.untracedRunS);
        w.field("traced_run_s", s.tracedRunS);
        w.key("setup").beginArray();
        for (const SetupSplit &sp : s.setup) {
            w.beginObject();
            w.field("os_init_s", sp.osInitS);
            w.field("memhog_s", sp.memhogS);
            w.field("heap_map_s", sp.heapMapS);
            w.field("complex_build_s", sp.complexBuildS);
            w.endObject();
        }
        w.endArray();
        emitDouble(w, "onepass_setup_s", s.onePassSetupS);
        emitDouble(w, "onepass_run_s", s.onePassRunS);
        emitDouble(w, "queue_wait_s", s.queueWaitS);
        emitDouble(w, "busy_ratio", s.busyRatio);
        const CounterSums &c = s.counters;
        w.key("counters").beginObject();
        w.field("l1_accesses", c.l1Accesses);
        w.field("l1_hits", c.l1Hits);
        w.field("l2_accesses", c.l2Accesses);
        w.field("l2_hits", c.l2Hits);
        w.field("llc_accesses", c.llcAccesses);
        w.field("llc_hits", c.llcHits);
        w.field("tft_lookups", c.tftLookups);
        w.field("tft_hits", c.tftHits);
        w.field("probes", c.probes);
        w.field("probe_hits", c.probeHits);
        w.field("invalidations", c.invalidations);
        w.field("owner_supplies", c.ownerSupplies);
        w.endObject();
        w.endObject();
    }
    w.endObject();
    std::cout << out.str() << std::endl;
}

/** The gate's mutation test: one small real run, then every field
 *  perturbed in turn must count as a failed cell. */
int
selfTest()
{
    Workload wl;
    buildWorkload("steady_1c", 1, 0.01, wl);
    const Cell &cell = wl.cells.front();
    const RunResult base = simulate(cell.workload, cell.config);

    Gate gate;
    std::uint64_t mutations = 0;
    const auto expectFail = [&](const std::string &what,
                                const RunResult &mutated) {
        ++mutations;
        gate.record(what, {diffResults(base, mutated)});
    };
    for (std::size_t i = 0;; ++i) {
        RunResult m = base;
        auto fields = harness::mutableResultFields(m);
        if (i >= fields.size())
            break;
        if (fields[i].integral)
            ++*fields[i].u;
        else
            *fields[i].d = std::nextafter(*fields[i].d, 1e300);
        expectFail(fields[i].name, m);
    }
    for (std::size_t i = 0;; ++i) {
        RunResult m = base;
        auto fields = harness::perCoreFields(m.perCore.front());
        if (i >= fields.size())
            break;
        if (fields[i].integral)
            ++*fields[i].u;
        else
            *fields[i].d = std::nextafter(*fields[i].d, 1e300);
        expectFail(std::string("core0.") + fields[i].name, m);
    }
    {
        RunResult m = base;
        ++m.probeInvalidations;
        expectFail("probe_invalidations", m);
        m = base;
        m.workload += "x";
        expectFail("workload", m);
    }

    // Positive controls: an identical result and the traced replay
    // must pass, or the gate would fail everything.
    Gate clean;
    clean.record("identical", {diffResults(base, base),
                               identityProblem(cell.config, base)});
    {
        SimEngine engine(cell.config, cell.workload);
        SpanRecorder rec(1, 4);
        ReplayCounts counts;
        clean.record("traced replay",
                     {diffResults(base, replayRun(engine, cell.workload,
                                                  &rec, counts))});
    }

    std::printf("{\"mutations\": %llu, \"caught\": %llu, "
                "\"controls_failed\": %llu}\n",
                static_cast<unsigned long long>(mutations),
                static_cast<unsigned long long>(gate.failed()),
                static_cast<unsigned long long>(clean.failed()));
    for (const std::string &r : clean.reasons())
        std::fprintf(stderr, "control failed: %s\n", r.c_str());
    return gate.failed() == mutations && clean.failed() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (opt.selfTest)
        return selfTest();

    Workload wl;
    if (!buildWorkload(opt.workload, opt.seed, opt.budgetScale, wl))
        usage(("unknown workload " + opt.workload).c_str());

    Gate gate;
    Samples samples;
    Bench bench(opt, wl, gate);
    bench.preflight();
    bench.run(samples);

    if (opt.trace && !opt.spans.empty()) {
        std::ofstream spans(opt.spans);
        samples.recorder.writeSpans(spans);
        if (!spans) {
            std::fprintf(stderr, "perfbench_sim: cannot write %s\n",
                         opt.spans.c_str());
            return 1;
        }
    }
    emit(opt, gate, samples);
    return 0;
}
