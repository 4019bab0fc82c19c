/**
 * @file
 * Instruction-fetch address generator for the L1I application of
 * SEESAW (Section V: "it is also possible to apply it to the
 * instruction cache. This may be valuable with the advent of cloud
 * workloads that use considerably larger instruction-side footprints").
 *
 * Code is modelled as a set of functions laid out contiguously in a
 * dedicated text segment; control flow picks functions zipf-skewed
 * (hot paths dominate) and fetches run sequentially for a geometric
 * number of lines before the next branch.
 */

#ifndef SEESAW_WORKLOAD_CODE_STREAM_HH
#define SEESAW_WORKLOAD_CODE_STREAM_HH

#include <cstdint>

#include "common/random.hh"
#include "common/types.hh"

namespace seesaw {

/** Parameters of the code model. */
struct CodeStreamParams
{
    std::uint64_t codeBytes = 2ULL << 20; //!< text-segment size
    double zipfAlpha = 1.5;       //!< hot-function skew
    double meanRunLines = 12.0;   //!< sequential fetch run per branch
    double meanFunctionLines = 16.0; //!< ~1KB functions
};

/**
 * Deterministic instruction-fetch line stream.
 */
class CodeStream
{
  public:
    CodeStream(const CodeStreamParams &params, Addr text_base,
               std::uint64_t seed);

    /** @return The VA of the next 64B fetch line. */
    Addr nextFetchLine();

    std::uint64_t codeBytes() const { return params_.codeBytes; }

  private:
    CodeStreamParams params_;
    Addr textBase_;
    Rng rng_;

    std::uint64_t numLines_;
    std::uint64_t numFunctions_;
    std::uint64_t cursor_ = 0;   //!< current fetch line
    std::uint64_t runLeft_ = 0;  //!< lines before the next branch

    /** Jump to a new (zipf-hot) function entry. */
    void branch();
};

} // namespace seesaw

#endif // SEESAW_WORKLOAD_CODE_STREAM_HH
