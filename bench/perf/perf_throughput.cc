/**
 * @file
 * Simulator-throughput suite backing the CI perf-regression gate.
 *
 * Two tiers of measurement, both repeated SEESAW_PERF_REPEATS times
 * (default 3) with the median reported:
 *
 *  - micro: ns/op of the primitives the simulator is built from —
 *    PageTable::translate() fast and slow paths, TLB lookup, VIPT L1
 *    probe, TFT lookup, the full SEESAW L1 access, a buddy
 *    allocate/free pair (the OS model's frame allocator), one
 *    ReferenceStream::next() of redis (zipf hot set) and gups (random
 *    chase), and the raw nextGeometric / nextZipf draws it is built
 *    from.
 *  - macro: simulated L1 accesses per second (and instructions per
 *    second) of whole-system runs, one cell per L1 design x workload
 *    class (zipf-hot / pointer-chase / streaming) on the paper's OoO
 *    fig07 configuration.
 *  - one_pass: N-substrate MultiConfigEngine pass vs N per-config
 *    re-runs of the same design-space sweep, at 4 and 8 substrates.
 *    The reported speedup is a wall-time ratio — machine-independent,
 *    so the gate asserts a hard floor on it rather than comparing
 *    against the baseline.
 *
 * A fixed integer calibration loop is timed alongside and reported as
 * `calibration_mops`; the gate divides every throughput metric by it so
 * the checked-in baseline transfers across machines of different speed.
 *
 * Output: `BENCH_throughput.json` under results/ (SEESAW_RESULTS_DIR),
 * plus a human-readable table on stdout. scripts/perf_gate.py compares
 * the JSON against bench/perf/BENCH_throughput.baseline.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/seesaw_cache.hh"
#include "core/tft.hh"
#include "harness/json.hh"
#include "harness/sinks.hh"
#include "mem/buddy_allocator.hh"
#include "mem/os_memory_manager.hh"
#include "sim/experiment.hh"
#include "sim/multi_config_engine.hh"
#include "sim/report.hh"
#include "sim/sim_engine.hh"
#include "tlb/tlb.hh"
#include "workload/reference_stream.hh"

namespace {

using namespace seesaw;

volatile std::uint64_t g_sink; //!< keeps measured loops live

void
consume(std::uint64_t v)
{
    g_sink = v;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

unsigned
envRepeats()
{
    if (const char *s = std::getenv("SEESAW_PERF_REPEATS")) {
        const long v = std::atol(s);
        if (v >= 1 && v <= 99)
            return static_cast<unsigned>(v);
    }
    return 3;
}

double
median(std::vector<double> v)
{
    SEESAW_ASSERT(!v.empty(), "median of empty series");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Fixed integer workload (xorshift64*) whose throughput in M ops/sec
 * characterises the host core; every gated metric is normalized by it.
 */
double
calibrationMops()
{
    constexpr std::uint64_t kOps = 40'000'000;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const double t0 = nowSeconds();
    for (std::uint64_t i = 0; i < kOps; ++i) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x *= 0x2545f4914f6cdd1dULL;
    }
    const double dt = nowSeconds() - t0;
    consume(x); // defeat dead-code elimination of the loop
    return kOps / dt / 1e6;
}

/** One micro-bench cell: median ns per operation over the repeats. */
struct MicroResult
{
    std::string name;
    double nsPerOp = 0.0;
};

template <typename Body>
MicroResult
runMicro(const std::string &name, std::uint64_t iterations,
         unsigned repeats, Body &&body)
{
    std::vector<double> ns;
    for (unsigned r = 0; r < repeats; ++r) {
        const double t0 = nowSeconds();
        body(iterations);
        ns.push_back((nowSeconds() - t0) * 1e9 / iterations);
    }
    return MicroResult{name, median(std::move(ns))};
}

/** A live OS image with a mix of 4KB and 2MB mappings to translate. */
struct TranslateFixture
{
    OsMemoryManager os;
    Asid asid;
    // 2048 4KB VPNs: fits the 4096-slot translation cache, so the
    // fast-path micro measures hits rather than conflict evictions.
    static constexpr std::uint64_t kBytes = 8ULL << 20;

    TranslateFixture()
        : os([] {
              OsParams p;
              p.memBytes = 256ULL << 20;
              return p;
          }()),
          asid(os.createProcess())
    {
        // Half the range THP-eligible: the fixture exercises both the
        // superpage and base-page probe orders.
        os.mapAnonymous(asid, 0x10000000, kBytes, 0.5);
    }
};

std::vector<MicroResult>
runMicroSuite(unsigned repeats)
{
    std::vector<MicroResult> out;

    {
        TranslateFixture fx;
        const PageTable &pt = fx.os.pageTable();
        out.push_back(runMicro(
            "pagetable_translate_fast", 4'000'000, repeats,
            [&](std::uint64_t iters) {
                Rng rng(7);
                std::uint64_t live = 0;
                for (std::uint64_t i = 0; i < iters; ++i) {
                    const Addr va = 0x10000000 +
                                    (rng.next() % fx.kBytes & ~Addr{7});
                    auto t = pt.translate(fx.asid, va);
                    live += t ? t->paBase : 0;
                }
                consume(live);
            }));
        out.push_back(runMicro(
            "pagetable_translate_slow", 2'000'000, repeats,
            [&](std::uint64_t iters) {
                Rng rng(7);
                std::uint64_t live = 0;
                for (std::uint64_t i = 0; i < iters; ++i) {
                    const Addr va = 0x10000000 +
                                    (rng.next() % fx.kBytes & ~Addr{7});
                    auto t = pt.translateSlow(fx.asid, va);
                    live += t ? t->paBase : 0;
                }
                consume(live);
            }));
    }

    {
        Tlb tlb("perf", 64, 4, PageSize::Base4KB);
        for (Addr p = 0; p < 64; ++p)
            tlb.insert(1, p << 12, p << 12, PageSize::Base4KB);
        out.push_back(runMicro(
            "tlb_lookup", 8'000'000, repeats,
            [&](std::uint64_t iters) {
                Addr va = 0;
                std::uint64_t live = 0;
                for (std::uint64_t i = 0; i < iters; ++i) {
                    va = (va + 4096) & 0x3ffff;
                    live += tlb.lookup(1, va) ? 1 : 0;
                }
                consume(live);
            }));
    }

    {
        SetAssocCache cache(32 * 1024, 8, 64, 2);
        Rng rng(1);
        for (int i = 0; i < 4096; ++i) {
            cache.insert(rng.next() & 0xffffff,
                         SetAssocCache::InsertScope::Partition,
                         CoherenceState::Exclusive, PageSize::Base4KB);
        }
        out.push_back(runMicro(
            "l1_probe", 8'000'000, repeats,
            [&](std::uint64_t iters) {
                Addr pa = 0;
                std::uint64_t live = 0;
                for (std::uint64_t i = 0; i < iters; ++i) {
                    pa = (pa + 8191) & 0xffffff;
                    live += cache.lookup(pa).hit ? 1 : 0;
                }
                consume(live);
            }));
    }

    {
        // Every probe hits: the TFT tracks all 16 superpage regions.
        Tft tft(16);
        for (Addr r = 0; r < 16; ++r)
            tft.markRegion(r << 21);
        out.push_back(runMicro(
            "tft_lookup", 8'000'000, repeats,
            [&](std::uint64_t iters) {
                Addr va = 0;
                std::uint64_t live = 0;
                for (std::uint64_t i = 0; i < iters; ++i) {
                    va = (va + 0x200000) & 0x1ffffff;
                    live += tft.lookup(va) ? 1 : 0;
                }
                consume(live);
            }));
    }

    {
        LatencyTable latency;
        SeesawConfig cfg;
        SeesawCache cache(cfg, latency);
        const Addr va = (7ULL << 21) | 0x1440;
        const Addr pa = (0x99ULL << 21) | (va & 0x1fffff);
        cache.tft().markRegion(va);
        out.push_back(runMicro(
            "seesaw_access", 4'000'000, repeats,
            [&](std::uint64_t iters) {
                std::uint64_t live = 0;
                for (std::uint64_t i = 0; i < iters; ++i) {
                    L1Access req{va, pa, PageSize::Super2MB,
                                 AccessType::Read};
                    live += cache.access(req).hit ? 1 : 0;
                }
                consume(live);
            }));
    }

    {
        BuddyAllocator buddy(256ULL << 20);
        out.push_back(runMicro(
            "buddy_alloc_free", 4'000'000, repeats,
            [&](std::uint64_t iters) {
                std::uint64_t live = 0;
                for (std::uint64_t i = 0; i < iters; ++i) {
                    const auto frame = buddy.allocate(0);
                    live += *frame;
                    buddy.free(*frame, 0);
                }
                consume(live);
            }));
    }

    for (const char *workload : {"redis", "gups"}) {
        ReferenceStream stream(findWorkload(workload), 1ULL << 32, 1);
        out.push_back(runMicro(
            std::string("reference_stream_next_") + workload, 4'000'000,
            repeats, [&](std::uint64_t iters) {
                std::uint64_t live = 0;
                for (std::uint64_t i = 0; i < iters; ++i) {
                    const MemRef ref = stream.next();
                    live += ref.va + ref.gap;
                }
                consume(live);
            }));
    }

    {
        // At redis's reference-gap mean and hot-set size.
        const WorkloadSpec &redis = findWorkload("redis");
        const double mean_gap = 1.0 / redis.memRefFraction - 1.0;
        const std::uint64_t hot_lines = redis.hotSetBytes / 64;
        Rng rng(5);
        out.push_back(runMicro(
            "rng_geometric", 8'000'000, repeats,
            [&](std::uint64_t iters) {
                std::uint64_t live = 0;
                for (std::uint64_t i = 0; i < iters; ++i)
                    live += rng.nextGeometric(mean_gap);
                consume(live);
            }));
        out.push_back(runMicro(
            "rng_zipf", 8'000'000, repeats, [&](std::uint64_t iters) {
                std::uint64_t live = 0;
                for (std::uint64_t i = 0; i < iters; ++i)
                    live += rng.nextZipf(hot_lines, redis.zipfAlpha);
                consume(live);
            }));
    }

    return out;
}

/** One macro cell: whole-system simulated-accesses/sec, median run. */
struct MacroResult
{
    std::string name;
    std::string workload;
    std::string design;
    double accessesPerSec = 0.0;
    double instrPerSec = 0.0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t instructions = 0;
    double wallSeconds = 0.0;
};

MacroResult
runMacro(const std::string &workload_name, L1Kind design,
         unsigned repeats)
{
    const WorkloadSpec &w = findWorkload(workload_name);
    SystemConfig cfg;
    cfg.l1Kind = design;
    cfg.coreKind = CoreKind::OutOfOrder;
    cfg.instructions = experimentInstructions(400'000);
    cfg.os.memBytes = experimentMemBytes(1ULL << 30);
    cfg.seed = 1;

    std::vector<double> wall;
    RunResult res;
    for (unsigned r = 0; r < repeats; ++r) {
        const double t0 = nowSeconds();
        res = simulate(w, cfg);
        wall.push_back(nowSeconds() - t0);
    }

    MacroResult m;
    m.workload = workload_name;
    m.design = design == L1Kind::ViptBaseline ? "vipt" : "seesaw";
    m.name = workload_name + "/" + m.design;
    m.wallSeconds = median(std::move(wall));
    m.l1Accesses = res.l1Accesses;
    m.instructions = res.instructions;
    m.accessesPerSec = res.l1Accesses / m.wallSeconds;
    m.instrPerSec = res.instructions / m.wallSeconds;
    return m;
}

/** One one_pass tier row: N-substrate pass vs N serial re-runs. */
struct OnePassResult
{
    unsigned substrates = 0;
    double serialSeconds = 0.0;
    double onePassSeconds = 0.0;
    double speedup = 0.0;
};

/**
 * The design-space sweep the one_pass tier times: @p n L1 designs
 * sharing one front end (same core kind and TLB geometry, so the
 * whole sweep shares one TLB hierarchy per core — the harness's
 * common case).
 */
std::vector<SystemConfig>
onePassSweepConfigs(unsigned n)
{
    const L1Kind kinds[] = {L1Kind::ViptBaseline,
                            L1Kind::Seesaw,
                            L1Kind::SeesawWayPredicted,
                            L1Kind::ViptWayPredicted,
                            L1Kind::Pipt,
                            L1Kind::Sipt};
    std::vector<SystemConfig> configs;
    for (unsigned i = 0; i < n; ++i) {
        SystemConfig cfg;
        cfg.l1Kind = kinds[i % std::size(kinds)];
        cfg.coreKind = CoreKind::OutOfOrder;
        cfg.instructions = experimentInstructions(200'000);
        // The fig12 fragmentation point: a 4GB physical image under
        // 60% memhog pressure. Building that image (buddy allocator,
        // churn, page tables) plus the zipf reference stream is the
        // config-invariant work a multi-config pass pays once instead of
        // once per configuration.
        cfg.os.memBytes = experimentMemBytes(4ULL << 30);
        cfg.memhogFraction = 0.6;
        cfg.seed = 1;
        if (i >= std::size(kinds)) {
            // Wrap-around variants stay distinct via partition width
            // (the default SEESAW uses 4 ways per partition).
            cfg.l1Kind = L1Kind::Seesaw;
            cfg.partitionWays = i == std::size(kinds) ? 2 : 8;
        }
        configs.push_back(cfg);
    }
    return configs;
}

OnePassResult
runOnePassMacro(unsigned substrates, unsigned repeats)
{
    const WorkloadSpec &w = findWorkload("redis");
    const std::vector<SystemConfig> configs =
        onePassSweepConfigs(substrates);

    std::vector<double> serial, onePass;
    for (unsigned r = 0; r < repeats; ++r) {
        double t0 = nowSeconds();
        std::uint64_t live = 0;
        for (const SystemConfig &cfg : configs)
            live += simulate(w, cfg).l1Accesses;
        serial.push_back(nowSeconds() - t0);

        t0 = nowSeconds();
        MultiConfigEngine engine(configs, w);
        for (const RunResult &res : engine.run())
            live += res.l1Accesses;
        onePass.push_back(nowSeconds() - t0);
        consume(live);
    }

    OnePassResult out;
    out.substrates = substrates;
    out.serialSeconds = median(std::move(serial));
    out.onePassSeconds = median(std::move(onePass));
    out.speedup = out.serialSeconds / out.onePassSeconds;
    return out;
}

void
writeJson(const std::string &path, double calibration_mops,
          unsigned repeats, const std::vector<MicroResult> &micro,
          const std::vector<MacroResult> &macro,
          const std::vector<OnePassResult> &one_pass)
{
    std::ofstream os(path);
    SEESAW_ASSERT(os.good(), "cannot open " + path);
    harness::JsonWriter w(os);
    w.beginObject();
    w.field("suite", "perf_throughput");
    w.field("git_describe", harness::gitDescribe());
    w.field("repeats", repeats);
    w.field("calibration_mops", calibration_mops);
    w.key("micro").beginArray();
    for (const auto &m : micro) {
        w.beginObject();
        w.field("name", m.name);
        w.field("ns_per_op", m.nsPerOp);
        // ops/sec normalized by the calibration score: the gated,
        // machine-transferable figure of merit.
        w.field("normalized_ops",
                1e9 / m.nsPerOp / (calibration_mops * 1e6));
        w.endObject();
    }
    w.endArray();
    w.key("macro").beginArray();
    for (const auto &m : macro) {
        w.beginObject();
        w.field("name", m.name);
        w.field("workload", m.workload);
        w.field("design", m.design);
        w.field("accesses_per_sec", m.accessesPerSec);
        w.field("instructions_per_sec", m.instrPerSec);
        w.field("normalized_accesses",
                m.accessesPerSec / (calibration_mops * 1e6));
        w.field("l1_accesses", m.l1Accesses);
        w.field("instructions", m.instructions);
        w.field("wall_seconds", m.wallSeconds);
        w.endObject();
    }
    w.endArray();
    w.key("one_pass").beginArray();
    for (const auto &p : one_pass) {
        w.beginObject();
        w.field("substrates", p.substrates);
        w.field("serial_seconds", p.serialSeconds);
        w.field("one_pass_seconds", p.onePassSeconds);
        // Wall-time ratio: machine-independent, gated as a floor.
        w.field("speedup", p.speedup);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace

int
main()
{
    const unsigned repeats = envRepeats();

    printBanner("BENCH_throughput",
                "Simulator throughput: hot-path primitives and "
                "whole-system accesses/sec");

    const double mops = calibrationMops();
    std::printf("calibration: %.1f M integer ops/sec, %u repeats "
                "(median reported)\n\n",
                mops, repeats);

    const auto micro = runMicroSuite(repeats);
    TableReporter microTable({"primitive", "ns/op", "normalized"});
    for (const auto &m : micro) {
        microTable.addRow({m.name, TableReporter::fmt(m.nsPerOp, 1),
                           TableReporter::fmt(
                               1e9 / m.nsPerOp / (mops * 1e6), 4)});
    }
    microTable.print();
    std::printf("\n");

    // One workload per reference-stream class: zipf-hot server
    // (redis), pointer-chase (gups), streaming/graph (g500).
    const char *const kWorkloads[] = {"redis", "gups", "g500"};
    std::vector<MacroResult> macro;
    for (const char *wl : kWorkloads)
        for (const L1Kind design :
             {L1Kind::ViptBaseline, L1Kind::Seesaw})
            macro.push_back(runMacro(wl, design, repeats));

    TableReporter macroTable(
        {"cell", "Maccess/s", "Minstr/s", "normalized"});
    for (const auto &m : macro) {
        macroTable.addRow(
            {m.name, TableReporter::fmt(m.accessesPerSec / 1e6, 2),
             TableReporter::fmt(m.instrPerSec / 1e6, 2),
             TableReporter::fmt(m.accessesPerSec / (mops * 1e6), 4)});
    }
    macroTable.print();
    std::printf("\n");

    // One-pass multi-config vs per-config re-runs of the same sweep.
    std::vector<OnePassResult> onePass;
    for (const unsigned substrates : {4u, 8u})
        onePass.push_back(runOnePassMacro(substrates, repeats));

    TableReporter onePassTable(
        {"substrates", "serial s", "one pass s", "speedup"});
    for (const auto &p : onePass) {
        onePassTable.addRow(
            {std::to_string(p.substrates),
             TableReporter::fmt(p.serialSeconds, 2),
             TableReporter::fmt(p.onePassSeconds, 2),
             TableReporter::fmt(p.speedup, 2) + "x"});
    }
    onePassTable.print();

    const char *env = std::getenv("SEESAW_RESULTS_DIR");
    const std::string dir = env && *env ? env : "results";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/BENCH_throughput.json";
    writeJson(path, mops, repeats, micro, macro, onePass);
    std::printf("\nwrote %s\n", path.c_str());
    return 0;
}
