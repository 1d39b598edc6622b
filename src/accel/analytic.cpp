#include "accel/analytic.hpp"

#include <cstdlib>
#include <limits>
#include <numeric>

#include "util/logging.hpp"
#include "util/saturate.hpp"

namespace stellar::accel
{

namespace detail
{

std::int64_t
satDeterminant(const std::int64_t *cells, int n, bool *saturated)
{
    auto at = [&](int r, int c) { return cells[r * n + c]; };
    if (n == 0)
        return 1;
    if (n == 1)
        return cells[0];
    if (n == 2) {
        return util::satAdd(util::satMul(at(0, 0), at(1, 1), saturated),
                            -util::satMul(at(0, 1), at(1, 0), saturated),
                            saturated);
    }
    // General cofactor expansion along the first row. Matrices here are
    // tiny (the spec's index count), so the recursion depth is shallow;
    // only n >= 3 allocates, and only off the 3-index DSE hot path.
    std::vector<std::int64_t> minor(std::size_t((n - 1) * (n - 1)));
    std::int64_t det = 0;
    for (int skip = 0; skip < n; skip++) {
        std::size_t out = 0;
        for (int r = 1; r < n; r++)
            for (int c = 0; c < n; c++)
                if (c != skip)
                    minor[out++] = at(r, c);
        std::int64_t term = util::satMul(
                at(0, skip), satDeterminant(minor.data(), n - 1, saturated),
                saturated);
        det = util::satAdd(det, (skip % 2 == 0) ? term : -term, saturated);
    }
    return det;
}

/**
 * The spatial rows of an invertible (d x d) transform form a rank d-1
 * map, so its rational kernel is one-dimensional and its integer points
 * are the multiples of a single primitive vector v. Two iteration
 * points fold onto the same PE exactly when they differ by a multiple
 * of v, which reduces every distinct-image count to box-overlap
 * arithmetic. v comes from the generalized cross product (signed
 * (d-1)-minors of the spatial rows), normalized by the gcd.
 */
bool
spatialKernelInto(const std::int64_t *cells, int d, IntVec &out,
                  bool *saturated)
{
    auto at = [&](int r, int c) { return cells[r * d + c]; };
    int sd = d - 1;
    out.assign(std::size_t(d), 0);
    bool local_saturated = false;
    std::int64_t g = 0;
    for (int skip = 0; skip < d; skip++) {
        std::int64_t det = 0;
        if (sd == 1) {
            det = at(0, skip == 0 ? 1 : 0);
        } else if (sd == 2) {
            // The dominant DSE case (3-index specs): the 2x2 minor over
            // the two columns != skip.
            int c0 = skip == 0 ? 1 : 0;
            int c1 = skip == 2 ? 1 : 2;
            det = util::satAdd(
                    util::satMul(at(0, c0), at(1, c1), &local_saturated),
                    -util::satMul(at(0, c1), at(1, c0), &local_saturated),
                    &local_saturated);
        } else {
            std::vector<std::int64_t> minor;
            for (int r = 0; r < sd; r++)
                for (int c = 0; c < d; c++)
                    if (c != skip)
                        minor.push_back(at(r, c));
            det = satDeterminant(minor.data(), sd, &local_saturated);
        }
        out[std::size_t(skip)] = (skip % 2 == 0) ? det : -det;
        g = std::gcd(g, std::llabs(det));
    }
    if (local_saturated && saturated != nullptr)
        *saturated = true;
    if (g <= 0) {
        // An invertible transform always has a rank d-1 spatial map, so
        // an all-zero minor vector can only be a saturation artifact
        // (clamped terms cancelling). Fall back to a deterministic unit
        // kernel so callers get *a* count — flagged as saturated, it
        // ranks after every honestly-counted candidate anyway.
        if (saturated != nullptr)
            *saturated = true;
        out.assign(std::size_t(d), 0);
        out[std::size_t(d - 1)] = 1;
        return false;
    }
    for (auto &component : out)
        component /= g;
    return true;
}

std::int64_t
distinctImages(const IntVec &spans, const IntVec &kernel, bool *saturated)
{
    std::int64_t total = 1;
    std::int64_t overlap = 1;
    for (std::size_t i = 0; i < spans.size(); i++) {
        std::int64_t span = spans[i];
        if (span <= 0)
            return 0;
        total = util::satMul(total, span, saturated);
        std::int64_t shifted = span - std::llabs(kernel[i]);
        overlap = shifted <= 0
                          ? 0
                          : util::satMul(overlap, shifted, saturated);
    }
    return total - overlap;
}

} // namespace detail

std::int64_t
AnalyticProbe::totalWires() const
{
    std::int64_t total = 0;
    for (const auto &wire : wires)
        total += wire.instances;
    return total;
}

std::int64_t
AnalyticProbe::totalWireLength() const
{
    std::int64_t total = 0;
    for (const auto &wire : wires)
        total += wire.instances * wire.wireLength;
    return total;
}

std::int64_t
analyticPeCount(const dataflow::SpaceTimeTransform &transform,
                const IntVec &bounds)
{
    IntVec kernel;
    return analyticPeCount(transform.matrix().cells(), bounds, kernel);
}

std::int64_t
analyticPeCount(std::span<const std::int64_t> cells, const IntVec &bounds,
                IntVec &kernel)
{
    const int d = int(bounds.size());
    require(cells.size() == std::size_t(d) * std::size_t(d),
            "transform dimensionality must match the bounds");
    if (d == 1)
        return 1; // no spatial axes: every point folds onto one PE
    bool saturated = false;
    if (!detail::spatialKernelInto(cells.data(), d, kernel, &saturated))
        return std::numeric_limits<std::int64_t>::max();
    return detail::distinctImages(bounds, kernel, &saturated);
}

AnalyticProbe
analyticProbe(const dataflow::SpaceTimeTransform &transform,
              const IntVec &bounds, const core::IterationSpace &space)
{
    require(transform.dims() == space.numIndices(),
            "transform dimensionality must match the iteration space");
    require(int(bounds.size()) == space.numIndices(),
            "bounds must cover every iterator");

    AnalyticProbe probe;
    const auto &m = transform.matrix();
    int d = transform.dims();
    int sd = transform.spaceDims();

    // Extents and schedule length: a linear form over a box attains its
    // extremes at the corners, so per row the image range is the sum of
    // per-axis coefficient reaches.
    probe.extents.assign(std::size_t(sd), 0);
    for (int r = 0; r < d; r++) {
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        for (int c = 0; c < d; c++) {
            std::int64_t reach =
                    util::satMul(m.at(r, c), bounds[std::size_t(c)] - 1,
                                 &probe.saturated);
            if (reach < 0)
                lo = util::satAdd(lo, reach, &probe.saturated);
            else
                hi = util::satAdd(hi, reach, &probe.saturated);
        }
        std::int64_t span = util::satAdd(
                util::satAdd(hi, -lo, &probe.saturated), 1,
                &probe.saturated);
        if (r + 1 == d)
            probe.scheduleLength = span;
        else
            probe.extents[std::size_t(r)] = span;
    }

    if (sd == 0) {
        probe.pes = 1;
        return probe; // no spatial axes: one PE, no wires
    }

    IntVec kernel;
    detail::spatialKernelInto(m.cells().data(), d, kernel,
                              &probe.saturated);
    probe.pes = detail::distinctImages(bounds, kernel, &probe.saturated);

    // Dense wire-instance counts: a wire instance exists for every
    // distinct spatial image of a source point, and the sources of a
    // conn class form the sub-box with per-axis span bound - |diff|
    // (the connInstances geometry), so the same kernel-overlap count
    // applies to the sub-box.
    for (const auto &conn : space.aliveConns()) {
        auto delta = transform.deltaOf(conn.diff);
        if (vecIsZero(delta.space))
            continue; // stationary under this transform: not a wire
        IntVec spans(std::size_t(d), 0);
        for (int c = 0; c < d; c++)
            spans[std::size_t(c)] = bounds[std::size_t(c)] -
                                    std::llabs(conn.diff[std::size_t(c)]);
        AnalyticWire wire;
        wire.tensor = conn.tensor;
        wire.spaceDelta = delta.space;
        wire.registers = delta.time;
        wire.wireLength = vecL1(delta.space);
        wire.instances =
                detail::distinctImages(spans, kernel, &probe.saturated);
        probe.wires.push_back(std::move(wire));
    }
    return probe;
}

} // namespace stellar::accel
