/**
 * @file
 * The Fitter benchmark (Section VIII.C of the paper).
 *
 * Fitter fits sparse position measurements into 3D tracks: compact,
 * CPU-intensive, vectorizable code with a hot kernel of ~15 basic
 * blocks. It exists in four variants:
 *
 *  - x87: legacy scalar floating point;
 *  - SSE: packed SSE (the Table 3 per-block BBEC study);
 *  - AVX fix: packed AVX with the compiler inlining fix applied;
 *  - AVX broken: the compiler-regression variant — helper calls are not
 *    inlined, so the kernel makes an enormous number of CALLs into
 *    scalar (x87) fallback helpers while the packed AVX count stays
 *    roughly unchanged. This reproduces the Table 6 diagnosis story.
 */

#ifndef HBBP_WORKLOADS_FITTER_HH
#define HBBP_WORKLOADS_FITTER_HH

#include <cstdint>
#include <vector>

#include "workloads/workload.hh"

namespace hbbp {

/** The four Fitter builds. */
enum class FitterVariant : uint8_t
{
    X87,
    Sse,
    AvxBroken, ///< The "AVX" column in Table 6.
    AvxFix,    ///< The "AVX fix" column in Table 6.
};

/**
 * The paper's variant label ("SSE", "AVX fix"): Table 6 headers and the
 * module file name. The workload itself is named by its registry key
 * ("fitter_sse", "fitter_avx_fix").
 */
const char *name(FitterVariant variant);

/** Generate one Fitter variant (with its calibrated code layout). */
Workload makeFitter(FitterVariant variant);

/**
 * Generate a Fitter variant with an explicit layout pad: @p pad extra
 * instructions of cold init code ahead of the hot kernel. Shifting the
 * kernel's addresses changes which branches alias into the LBR
 * entry[0] anomaly (a hardware address hash); the default per-variant
 * pads are chosen so the builds exhibit the paper's observed pattern.
 * Exposed for tests and layout-sensitivity studies.
 */
Workload makeFitter(FitterVariant variant, size_t pad);

/**
 * Start addresses of the hot kernel's basic blocks in layout order (the
 * BB1..BB15 of Table 3), for a generated Fitter program.
 */
std::vector<uint64_t> fitterKernelBlockAddrs(const Program &prog);

/** Number of track iterations executed (for time-per-track metrics). */
uint64_t fitterTrackCount(const Program &prog,
                          const std::vector<uint64_t> &bbec_by_block);

} // namespace hbbp

#endif // HBBP_WORKLOADS_FITTER_HH
