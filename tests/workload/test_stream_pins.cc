/**
 * @file
 * Bit-exact pins of the reference stream and of the raw draws it is
 * built from. The statistical tests in test_workloads.cc would pass
 * for a different stream with the same moments; these hashes fail on
 * any moved draw, so a faster draw must reproduce every value.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/random.hh"
#include "workload/reference_stream.hh"
#include "workload/workload_spec.hh"

namespace seesaw {
namespace {

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void add(std::uint64_t v)
    {
        h ^= v;
        h *= 0x100000001b3ULL;
    }
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

constexpr int kStreamRefs = 200'000;
constexpr int kRawDraws = 50'000;

/** Hash of the first kStreamRefs references of one stream. */
std::uint64_t
streamHash(const WorkloadSpec &spec, std::uint64_t seed, unsigned thread)
{
    ReferenceStream stream(spec, 1ULL << 32, seed, thread);
    Fnv f;
    for (int i = 0; i < kStreamRefs; ++i) {
        const MemRef ref = stream.next();
        f.add(ref.va);
        f.add(ref.gap);
        f.add(static_cast<std::uint64_t>(ref.type));
    }
    return f.h;
}

/** Pinned hashes per paper workload: seed 1 and 9001, thread 0 and 3. */
struct StreamPin
{
    const char *workload;
    std::uint64_t seed1Thread0, seed1Thread3, seed9001Thread0,
        seed9001Thread3;
};

constexpr StreamPin kStreamPins[] = {
    {"astar",
     0xfd863c04cfe13c05, 0x0cba7b13acc93c05,
     0x298e32ed83694ed2, 0xc52436c3bdb14ed2},
    {"cactus",
     0xd594d73fd58cf29a, 0xfa2bf1bc61bcf29a,
     0x5a1ce9eded04b255, 0xeda9113c4134b255},
    {"cann",
     0x06dfa0da20b70e1c, 0x2d9059d1e1db5bac,
     0xe1d14f3274713c7b, 0xc164ff96c74abee1},
    {"gems",
     0xeeb2fb454a422e32, 0x8c9876cd40322e32,
     0x5bf1c7ad4daab753, 0x35a8e1d89b3ab753},
    {"g500",
     0x1319af67d2f8f31c, 0xd5de18917c8f23b5,
     0x239b7a77ce83eab9, 0xcf3c6961b52c1064},
    {"gups",
     0x4f6ade77b3c8c102, 0x871b9f897848c102,
     0x8eb18960f3fb1567, 0xac00d3a5b0ab1567},
    {"mcf",
     0x196df659b1c90c2f, 0x9be5a2e8bee90c2f,
     0x5179b1b8da2cbe61, 0xb0682c3ea80cbe61},
    {"mumm",
     0xcbe4ecce0187d159, 0xc11b57e8e527d159,
     0x4a518895791d586c, 0xf1f7e31cc45d586c},
    {"omnet",
     0x26f5f80d81b01dcc, 0xda4f2303b7501dcc,
     0x626261a7c8d495c7, 0xba9b7083f5ec95c7},
    {"tigr",
     0xcca8d005161cf9fb, 0xa939702e1f1cf9fb,
     0x95a4236abbcd75e0, 0x0794ddb67a4d75e0},
    {"tunk",
     0x2502d77b1361fc7d, 0xdea2b00bcc63c7fe,
     0x1a7ff367f639a80f, 0xc9f6657179842d6a},
    {"xalanc",
     0xa851ea2b2d3b5506, 0x1e2eecf5c6db5506,
     0x87f5b4f55d650574, 0x19cd49b3f7250574},
    {"nutch",
     0xe1932373c2cf7089, 0x15c156dd10b0e1ce,
     0x6aaaebb8f307686a, 0x978da2d099dff3e8},
    {"olio",
     0x2976b9ac0bca9d1d, 0x9f22f13eeacad495,
     0xd2cf1e4e45abd068, 0xb78652c37bff971b},
    {"redis",
     0x6a0dca20cdc523f3, 0xe0afd0ff5f60b19f,
     0xacd26f4131fd5f13, 0xc3fe3e5fb94a2ee0},
    {"mongo",
     0x3bc93bf3b937e55b, 0xb15073e31a0146d1,
     0x46e09a54de1358f9, 0x1fe4968d6d10c7fa},
};

TEST(StreamPins, EveryPaperWorkloadStreamIsBitExact)
{
    const auto &workloads = paperWorkloads();
    ASSERT_EQ(workloads.size(), std::size(kStreamPins));
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const WorkloadSpec &w = workloads[i];
        const StreamPin &pin = kStreamPins[i];
        ASSERT_EQ(w.name, pin.workload);
        const std::uint64_t got[] = {streamHash(w, 1, 0),
                                     streamHash(w, 1, 3),
                                     streamHash(w, 9001, 0),
                                     streamHash(w, 9001, 3)};
        EXPECT_EQ(got[0], pin.seed1Thread0)
            << "{\"" << w.name << "\", " << hex(got[0]) << ", "
            << hex(got[1]) << ", " << hex(got[2]) << ", " << hex(got[3])
            << "},";
        EXPECT_EQ(got[1], pin.seed1Thread3)
            << w.name << " seed 1 thread 3";
        EXPECT_EQ(got[2], pin.seed9001Thread0)
            << w.name << " seed 9001 thread 0";
        EXPECT_EQ(got[3], pin.seed9001Thread3)
            << w.name << " seed 9001 thread 3";
    }
}

/** Pinned raw draws per paper workload, at the workload's own means
 *  and hot-set size: the reference gap (1/memRefFraction - 1), the
 *  chase stay, and the hot-set Zipf rank. */
struct DrawPin
{
    const char *workload;
    std::uint64_t gap, stay, zipf;
};

constexpr DrawPin kDrawPins[] = {
    {"astar", 0x996e42e0ca548d42, 0x692e3ce4ead192f9, 0xb72330476adcd96a},
    {"cactus", 0x6bf9d350b0c37b81, 0xb7e8a3a247970e81, 0x0065544c2fba5859},
    {"cann", 0xae723942b429b3cd, 0x69f775a37890cda7, 0x5550314ca067e030},
    {"gems", 0x20e4a9681a658bf8, 0x3275be592bf4edd5, 0x673ee6479158df78},
    {"g500", 0x8fd4767c3288ba0b, 0x0841834bb7a7c4a3, 0x302d993650b0a1cc},
    {"gups", 0x80c7fe94e94893ee, 0xc5448a7bfd5da984, 0x62387f04ebf137c6},
    {"mcf", 0xa3979a2eb15f18a5, 0x53b0b2fbd4f6418c, 0x7330b1af03da336a},
    {"mumm", 0x4df6cc4d54b9b33e, 0x87d18d6b1cb9243c, 0x8655c0de829b401e},
    {"omnet", 0x02cb051137beda4a, 0xac7487009d0a821e, 0x5865815ab1701dc3},
    {"tigr", 0xd56324c56587b471, 0xe9f56e3d2602d682, 0xf417169a74ee9ea6},
    {"tunk", 0x35376ded7dfe0585, 0x686a322d90d3d868, 0x6489fd23d0ac78cb},
    {"xalanc", 0xe59b1902edd0d35c, 0xd8ec5d20421b187d, 0x59207c7c2a62154f},
    {"nutch", 0x2a2a218ef27ffdc2, 0x9798fc58cf86bc32, 0x02b187614b14069c},
    {"olio", 0xe1f0dbd999914753, 0x76d3efcec2b24389, 0xeb3080303ff2f2a4},
    {"redis", 0x565f7f57ad6e915d, 0xeaba97bfc3157d13, 0x203f1c61caa48853},
    {"mongo", 0xcd6b319e38d5e479, 0x8ca51051a6334fa1, 0x660ff486cac702d6},
};

TEST(StreamPins, RawGeometricAndZipfDrawsAreBitExact)
{
    const auto &workloads = paperWorkloads();
    ASSERT_EQ(workloads.size(), std::size(kDrawPins));
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const WorkloadSpec &w = workloads[i];
        const DrawPin &pin = kDrawPins[i];
        ASSERT_EQ(w.name, pin.workload);
        Rng rng(1000 + i);
        Fnv gap, stay, zipf;
        const double mean_gap = 1.0 / w.memRefFraction - 1.0;
        const std::uint64_t hot_lines = w.hotSetBytes / 64;
        for (int d = 0; d < kRawDraws; ++d) {
            gap.add(rng.nextGeometric(mean_gap));
            stay.add(rng.nextGeometric(w.chaseRegionStayRefs));
            zipf.add(rng.nextZipf(hot_lines, w.zipfAlpha));
        }
        EXPECT_EQ(gap.h, pin.gap)
            << "{\"" << w.name << "\", " << hex(gap.h) << ", "
            << hex(stay.h) << ", " << hex(zipf.h) << "},";
        EXPECT_EQ(stay.h, pin.stay) << w.name << " chase stay";
        EXPECT_EQ(zipf.h, pin.zipf) << w.name << " zipf";
    }
}

} // namespace
} // namespace seesaw
