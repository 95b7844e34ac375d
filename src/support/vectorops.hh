/**
 * @file
 * Bit-stable span math for the fold path.
 *
 * The fold/merge hot path (per-host partial folds in fleet/merge and
 * fleet/aggregate, the Counter math behind mix analysis) is span
 * arithmetic over doubles and u64 feature counters. This layer gives it
 * one set of kernels — sum / dot / saxpy / scale / scaledCopy /
 * saturating-u64-accumulate — in one translation unit, vectorops.cc.
 *
 * Two contracts the kernels honor:
 *
 *  1. **Bit stability.** Reductions (sum, dot) are defined as eight
 *     independent stride-8 accumulator lanes folded by a fixed
 *     reduction tree, and element-wise kernels perform exactly one
 *     IEEE operation per element (no FMA contraction). vectorops.cc is
 *     built with -ffp-contract=off and the kernels stay out of line, so
 *     a -march=native build cannot fuse a*x+y into one rounding: every
 *     build produces the *same bits* for the same input.
 *
 *  2. **Determinism across platforms.** Callers that sum unordered
 *     containers (Counter<Key>) gather values in sorted-key order
 *     first; combined with the fixed lane/tree order above, mix
 *     percentages do not depend on libstdc++ vs libc++ hash iteration
 *     order.
 *
 * Spans may be empty, length-1, or arbitrarily (un)aligned.
 */

#ifndef HBBP_SUPPORT_VECTOROPS_HH
#define HBBP_SUPPORT_VECTOROPS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hbbp::vecops {

/** Bit-stable 8-lane sum of x[0..n). 0.0 when n == 0. */
double sum(const double *x, size_t n);
/** sum() over a vector. */
double sum(const std::vector<double> &x);
/** Bit-stable 8-lane dot product of x and y. 0.0 when n == 0. */
double dot(const double *x, const double *y, size_t n);
/** y[i] += a * x[i] (one mul + one add per element, no FMA). */
void saxpy(double *y, double a, const double *x, size_t n);
/** x[i] *= a. */
void scale(double *x, double a, size_t n);
/** dst[i] = a * src[i]; dst and src must not overlap. */
void scaledCopy(double *dst, const double *src, double a, size_t n);
/**
 * dst[i] = addSatU64(dst[i], src[i]): lanes that would wrap past
 * UINT64_MAX clamp there instead. Returns the number of saturated
 * lanes.
 */
size_t accumulateSatU64(uint64_t *dst, const uint64_t *src, size_t n);

/**
 * Scalar saturating u64 add: a + b, clamped to UINT64_MAX on wrap.
 * *@p saturated (when non-null) is set to true on a clamp and left
 * untouched otherwise, so one flag can watch a whole fold.
 */
uint64_t addSatU64(uint64_t a, uint64_t b, bool *saturated = nullptr);

} // namespace hbbp::vecops

#endif // HBBP_SUPPORT_VECTOROPS_HH
