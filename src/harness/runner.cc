#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/thread_annotations.hh"
#include "sim/multi_config_engine.hh"

namespace seesaw::harness {

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_stopRequested{false};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Serialized progress reporting shared by all workers. */
class Progress
{
  public:
    Progress(const std::string &campaign, std::size_t total,
             bool enabled)
        : campaign_(campaign), total_(total), enabled_(enabled),
          start_(Clock::now())
    {
    }

    void
    cellDone(const std::string &name, double cell_seconds)
        SEESAW_EXCLUDES(mutex_)
    {
        const std::size_t done = ++done_;
        if (!enabled_)
            return;
        const double elapsed = secondsSince(start_);
        const double eta =
            done ? elapsed / done * (total_ - done) : 0.0;
        MutexLock lock(mutex_);
        std::fprintf(stderr,
                     "[%s] %zu/%zu %s (%.2fs) elapsed %.1fs eta %.1fs\n",
                     campaign_.c_str(), done, total_, name.c_str(),
                     cell_seconds, elapsed, eta);
    }

  private:
    const std::string &campaign_;
    const std::size_t total_;
    const bool enabled_;
    const Clock::time_point start_;
    std::atomic<std::size_t> done_{0};
    AnnotatedMutex mutex_; //!< keeps stderr lines whole across workers
};

/** Per-run shared state for the completion callback. */
struct CellHooks
{
    const std::function<void(const CellResult &)> *const onCellDone;
    AnnotatedMutex mutex; //!< serializes the callback across workers
};

/**
 * Execution plan: normally one task per cell; with one-pass grouping,
 * cells that share the whole WorkloadSpec (benches override footprints
 * and fractions under one workload name) and the front-end key
 * collapse into one multi-config task each, in first-member order.
 */
std::vector<std::vector<std::size_t>>
planTasks(const std::vector<Cell> &cells, bool one_pass)
{
    std::vector<std::vector<std::size_t>> tasks;
    tasks.reserve(cells.size());
    std::vector<std::string> front_ends; //!< per task, one-pass only
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (one_pass) {
            std::string front_end =
                MultiConfigEngine::frontEndKey(cells[i].config);
            std::size_t t = 0;
            for (; t < tasks.size(); ++t) {
                if (front_ends[t] == front_end &&
                    cells[tasks[t].front()].workload == cells[i].workload)
                    break;
            }
            if (t < tasks.size()) {
                tasks[t].push_back(i);
                continue;
            }
            front_ends.push_back(std::move(front_end));
        }
        tasks.push_back({i});
    }
    return tasks;
}

/** Run one task — a lone cell or a one-pass group — as a single
 *  MultiConfigEngine pass whose results land in the members' own
 *  slots. */
void
runTask(const std::vector<Cell> &cells,
        const std::vector<std::size_t> &members,
        std::vector<CellResult> &slots, std::vector<char> &ran,
        Progress &progress, CellHooks &hooks)
{
    std::vector<SystemConfig> configs;
    configs.reserve(members.size());
    for (const std::size_t i : members)
        configs.push_back(cells[i].config);
    const auto start = Clock::now();
    // The engine is gone before the results that outlive it are built,
    // so its memory frees as one block the next task's engine reuses;
    // built while it lived, they split that block and grew peak RSS
    // from task to task.
    std::vector<RunResult> results =
        MultiConfigEngine(std::move(configs), cells[members[0]].workload)
            .run();
    // One pass produced every member's result; report the shared wall
    // time as an even split so per-cell accounting stays meaningful.
    const double wall = secondsSince(start) / members.size();
    for (std::size_t k = 0; k < members.size(); ++k) {
        const Cell &cell = cells[members[k]];
        CellResult out;
        out.name = cell.name;
        out.workload = cell.workload.name;
        out.seed = cell.config.seed;
        out.configHash = configHash(cell.config);
        out.result = std::move(results[k]);
        out.wallSeconds = wall;
        progress.cellDone(cell.name, wall);
        if (hooks.onCellDone != nullptr && *hooks.onCellDone) {
            MutexLock lock(hooks.mutex);
            (*hooks.onCellDone)(out);
        }
        slots[members[k]] = std::move(out);
        ran[members[k]] = 1;
    }
}

} // namespace

void
requestStop()
{
    g_stopRequested.store(true, std::memory_order_relaxed);
}

bool
stopRequested()
{
    return g_stopRequested.load(std::memory_order_relaxed);
}

void
clearStopRequest()
{
    g_stopRequested.store(false, std::memory_order_relaxed);
}

void
installStopSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = [](int) { requestStop(); };
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: let blocking calls see EINTR
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

CampaignRunner::CampaignRunner(RunnerOptions options)
    : options_(std::move(options))
{
}

unsigned
CampaignRunner::effectiveJobs() const
{
    return options_.jobs ? options_.jobs : defaultJobs();
}

CampaignOutcome
CampaignRunner::run(const CampaignSpec &spec) const
{
    return runCells(spec.name(), spec.cells());
}

CampaignOutcome
CampaignRunner::runCells(const std::string &name,
                         const std::vector<Cell> &cells) const
{
    const unsigned jobs = effectiveJobs();

    CampaignOutcome outcome;
    outcome.meta.campaign = name;
    outcome.meta.gitDescribe = gitDescribe();
    outcome.meta.jobs = jobs;
    outcome.totalCells = cells.size();

    std::vector<CellResult> slots(cells.size());
    std::vector<char> ran(cells.size(), 0);

    const auto start = Clock::now();
    Progress progress(name, cells.size(), options_.progress);
    CellHooks hooks{&options_.onCellDone, {}};

    const std::vector<std::vector<std::size_t>> tasks =
        planTasks(cells, options_.onePass);

    // Workers claim tasks in order, and each task writes only its own
    // pre-sized slots, so result order is the cell order no matter who
    // finishes when. A stop request ends the claiming while in-flight
    // tasks run to completion. The calling thread is one of the
    // workers, so one job starts no thread.
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        while (!stopRequested()) {
            const std::size_t t =
                next.fetch_add(1, std::memory_order_relaxed);
            if (t >= tasks.size())
                return;
            runTask(cells, tasks[t], slots, ran, progress, hooks);
        }
    };
    {
        const std::size_t workers = std::min<std::size_t>(jobs, tasks.size());
        std::vector<std::jthread> helpers; // joined when the scope ends
        for (std::size_t w = 1; w < workers; ++w)
            helpers.emplace_back(work);
        work();
    }

    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (ran[i])
            outcome.results.push_back(std::move(slots[i]));
    }
    outcome.interrupted = outcome.results.size() < cells.size();
    outcome.meta.wallSeconds = secondsSince(start);
    return outcome;
}

CampaignOutcome
CampaignRunner::runAndWrite(const CampaignSpec &spec,
                            std::string dir) const
{
    CampaignOutcome outcome = run(spec);
    const auto paths =
        writeCampaignSinks(outcome.meta, outcome.results,
                           std::move(dir));
    if (options_.progress) {
        for (const auto &path : paths)
            std::fprintf(stderr, "[%s] wrote %s\n",
                         spec.name().c_str(), path.c_str());
    }
    if (outcome.interrupted) {
        std::fprintf(stderr,
                     "[%s] interrupted after %zu/%zu cells; partial "
                     "sinks flushed (a store-backed campaign is "
                     "resumable with --store DIR --resume)\n",
                     spec.name().c_str(), outcome.results.size(),
                     outcome.totalCells);
    }
    return outcome;
}

unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        envCount("SEESAW_JOBS", hw ? hw : 1, 1,
                 std::numeric_limits<unsigned>::max()));
}

const RunResult &
findResult(const std::vector<CellResult> &results,
           const std::string &name)
{
    for (const auto &cell : results) {
        if (cell.name == name)
            return cell.result;
    }
    SEESAW_FATAL("no campaign cell named ", name);
}

} // namespace seesaw::harness
