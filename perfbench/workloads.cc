#include "workloads.hh"

#include <algorithm>
#include <cmath>

namespace perfbench {

using namespace seesaw;

namespace {

constexpr std::uint64_t kGiB = 1ULL << 30;

std::uint64_t
scaled(std::uint64_t budget, double scale)
{
    return std::max<std::uint64_t>(
        1000, static_cast<std::uint64_t>(std::llround(
                  static_cast<double>(budget) * scale)));
}

/** The paper's OoO core at 1.33GHz with audits off, as the campaign
 *  CLI runs it. */
SystemConfig
baseConfig(std::uint64_t seed, double scale)
{
    SystemConfig cfg;
    cfg.coreKind = CoreKind::OutOfOrder;
    cfg.freqGhz = 1.33;
    cfg.seed = seed;
    cfg.audit.mode = check::AuditMode::Off;
    cfg.warmupInstructions = scaled(cfg.warmupInstructions, scale);
    return cfg;
}

const char *
designName(L1Kind kind)
{
    switch (kind) {
      case L1Kind::ViptBaseline: return "vipt";
      case L1Kind::Seesaw: return "seesaw";
      case L1Kind::SeesawWayPredicted: return "seesaw-wp";
      case L1Kind::Pipt: return "pipt";
      case L1Kind::ViptWayPredicted: return "vipt-wp";
      case L1Kind::Sipt: return "sipt";
    }
    return "?";
}

/** The nightly grid (examples/campaign --designs vipt,seesaw
 *  --instructions 300000 --mc-cells tunk:4:seesaw,...): seed 1,
 *  whatever seed the benchmark runs. */
Cell
goldenSingleCore(L1Kind kind)
{
    SystemConfig cfg;
    cfg.l1Kind = kind;
    cfg.l1SizeBytes = 32 * 1024;
    cfg.l1Assoc = 8;
    cfg.freqGhz = 1.33;
    cfg.instructions = 300'000;
    cfg.os.memBytes = 4 * kGiB;
    cfg.seed = 1;
    cfg.audit.mode = check::AuditMode::Off;
    return Cell{std::string("redis/32KB/1.33GHz/") +
                    (kind == L1Kind::Seesaw ? "seesaw" : "vipt"),
                findWorkload("redis"), cfg};
}

Cell
goldenFourCoreTunk()
{
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.l1Kind = L1Kind::Seesaw;
    cfg.l1SizeBytes = 64 * 1024;
    cfg.l1Assoc = 16;
    cfg.instructions = 300'000;
    cfg.os.memBytes = kGiB;
    cfg.seed = 1;
    cfg.audit.mode = check::AuditMode::Off;
    return Cell{"tunk/c4/seesaw", findWorkload("tunk"), cfg};
}

} // namespace

bool
buildWorkload(const std::string &name, std::uint64_t seed,
              double budget_scale, Workload &out)
{
    out = Workload{};
    out.name = name;
    if (name == "steady_1c") {
        // Long single-core cells on an unfragmented 1GB host: setup is
        // a few percent of the time, so the per-access path dominates.
        // redis is a zipf hot set (TFT hits, L1 hits); gups a random
        // chase (writes, L1/TLB misses).
        for (const char *wl : {"redis", "gups"}) {
            for (L1Kind kind : {L1Kind::ViptBaseline, L1Kind::Seesaw}) {
                SystemConfig cfg = baseConfig(seed, budget_scale);
                cfg.l1Kind = kind;
                cfg.os.memBytes = kGiB;
                cfg.instructions = scaled(2'000'000, budget_scale);
                out.cells.push_back(Cell{std::string(wl) + "/" +
                                             designName(kind),
                                         findWorkload(wl), cfg});
            }
        }
        out.golden = {goldenSingleCore(L1Kind::ViptBaseline),
                      goldenSingleCore(L1Kind::Seesaw)};
        return true;
    }
    if (name == "fig12_sweep") {
        // Fig 12's point: redis on a 4GB host fragmented by memhog, the
        // 64KB/16-way L1, short cells. Construction is a large share,
        // so front-end reuse and one-pass grouping show here.
        for (double level : {0.0, 0.3, 0.6}) {
            std::vector<std::size_t> group;
            for (L1Kind kind : {L1Kind::ViptBaseline, L1Kind::Seesaw,
                                L1Kind::SeesawWayPredicted,
                                L1Kind::Pipt}) {
                SystemConfig cfg = baseConfig(seed, budget_scale);
                cfg.l1Kind = kind;
                cfg.l1SizeBytes = 64 * 1024;
                cfg.l1Assoc = 16;
                cfg.os.memBytes = 4 * kGiB;
                cfg.memhogFraction = level;
                cfg.instructions = scaled(200'000, budget_scale);
                group.push_back(out.cells.size());
                out.cells.push_back(Cell{
                    "redis/mh" +
                        std::to_string(static_cast<int>(level * 100)) +
                        "/" + designName(kind),
                    findWorkload("redis"), cfg});
            }
            out.groups.push_back(std::move(group));
        }
        out.golden = {goldenSingleCore(L1Kind::ViptBaseline),
                      goldenSingleCore(L1Kind::Seesaw)};
        return true;
    }
    if (name == "multicore_dir") {
        // Four cores over one heap with exact directory MOESI: the only
        // workload where the coherence fabric does real work. tunk and
        // olio differ in shared footprint and write mix.
        for (const char *wl : {"tunk", "olio"}) {
            SystemConfig cfg = baseConfig(seed, budget_scale);
            cfg.cores = 4;
            cfg.fabric = CoherenceKind::Directory;
            cfg.l1Kind = L1Kind::Seesaw;
            cfg.l1SizeBytes = 64 * 1024;
            cfg.l1Assoc = 16;
            cfg.os.memBytes = kGiB;
            cfg.instructions = scaled(500'000, budget_scale);
            out.cells.push_back(
                Cell{std::string(wl) + "/c4/seesaw", findWorkload(wl), cfg});
        }
        out.golden = {goldenFourCoreTunk()};
        return true;
    }
    return false;
}

} // namespace perfbench
