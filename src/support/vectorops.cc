/**
 * The fold-math kernels (see the contracts in vectorops.hh).
 *
 * Reductions run 8 independent stride-8 lanes and fold them with a
 * fixed tree; element-wise kernels do one IEEE operation per element.
 * This TU is compiled with -ffp-contract=off, and the kernels live here
 * rather than inline in the header, so a host compiler with FMA cannot
 * contract them into different roundings at any call site.
 */

#include "support/vectorops.hh"

namespace hbbp::vecops {

namespace {

double
reduceLanes(const double lane[8])
{
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
           ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

} // namespace

double
sum(const double *x, size_t n)
{
    double lane[8] = {};
    size_t nb = n & ~static_cast<size_t>(7);
    for (size_t i = 0; i < nb; i += 8)
        for (size_t j = 0; j < 8; j++)
            lane[j] += x[i + j];
    for (size_t i = nb; i < n; i++)
        lane[i - nb] += x[i];
    return reduceLanes(lane);
}

double
sum(const std::vector<double> &x)
{
    return sum(x.data(), x.size());
}

double
dot(const double *x, const double *y, size_t n)
{
    double lane[8] = {};
    size_t nb = n & ~static_cast<size_t>(7);
    for (size_t i = 0; i < nb; i += 8)
        for (size_t j = 0; j < 8; j++)
            lane[j] += x[i + j] * y[i + j];
    for (size_t i = nb; i < n; i++)
        lane[i - nb] += x[i] * y[i];
    return reduceLanes(lane);
}

void
saxpy(double *y, double a, const double *x, size_t n)
{
    for (size_t i = 0; i < n; i++)
        y[i] = y[i] + a * x[i];
}

void
scale(double *x, double a, size_t n)
{
    for (size_t i = 0; i < n; i++)
        x[i] *= a;
}

void
scaledCopy(double *dst, const double *src, double a, size_t n)
{
    for (size_t i = 0; i < n; i++)
        dst[i] = a * src[i];
}

size_t
accumulateSatU64(uint64_t *dst, const uint64_t *src, size_t n)
{
    size_t saturated = 0;
    for (size_t i = 0; i < n; i++) {
        uint64_t r = dst[i] + src[i];
        if (r < src[i]) {
            r = UINT64_MAX;
            saturated++;
        }
        dst[i] = r;
    }
    return saturated;
}

uint64_t
addSatU64(uint64_t a, uint64_t b, bool *saturated)
{
    uint64_t r = a + b;
    if (r < b) {
        if (saturated)
            *saturated = true;
        return UINT64_MAX;
    }
    return r;
}

} // namespace hbbp::vecops
