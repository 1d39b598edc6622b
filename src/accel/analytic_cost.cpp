#include "accel/analytic_cost.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>

#include "accel/analytic.hpp"
#include "core/prune.hpp"
#include "model/area.hpp"
#include "util/logging.hpp"
#include "util/saturate.hpp"

namespace stellar::accel
{

AnalyticCostModel::AnalyticCostModel(const func::FunctionalSpec &functional,
                                     const IntVec &bounds,
                                     const sparsity::SparsitySpec &sparsity,
                                     int data_width, int mac_bits,
                                     const model::AreaParams &area_params,
                                     const model::TimingParams &timing_params)
    : space_(core::elaborate(functional, bounds)), bounds_(bounds),
      dims_(functional.numIndices()), macBits_(mac_bits),
      area_(area_params), timing_(timing_params)
{
    require(int(bounds.size()) == dims_, "bounds must cover every iterator");
    core::applySparsity(space_, sparsity);

    // Per-conn geometry: everything about a conn class except its
    // space-time delta is transform-independent.
    for (const auto &conn : space_.aliveConns()) {
        ConnGeometry geometry;
        geometry.diff = conn.diff;
        geometry.widthBits =
                data_width * (conn.bundled ? conn.bundleSize : 1);
        geometry.subSpans.assign(std::size_t(dims_), 0);
        for (int c = 0; c < dims_; c++)
            geometry.subSpans[std::size_t(c)] =
                    bounds[std::size_t(c)] -
                    std::llabs(conn.diff[std::size_t(c)]);
        conns_.push_back(std::move(geometry));
    }

    // Transform-independent delay floor. A DSE spec carries no buffer
    // bindings, so core::generate always falls back to the fully-
    // associative regfile whose searched-entry count is exactly
    // touchedElements: the number of distinct external coordinate
    // tuples over the fired IO points — a property of the pruned space
    // and bounds only. (timingOf divides comparators back down by the
    // port count, so the transform-dependent port pressure cancels;
    // the quotient is exact in double up to 2^53 comparators, far
    // beyond any elaborable space.) The same goes for the SRAM and
    // distributed address-generator components.
    double floor =
            std::max(timing_.sramAccess, timing_.distributedAddrGen);
    const auto &space_bounds = space_.bounds();
    for (int t = 0; t < functional.numTensors(); t++) {
        if (functional.tensorKind(t) == func::TensorKind::Intermediate)
            continue;
        std::set<IntVec> coords;
        bool fired = false;
        for (const auto &io : space_.ioConns()) {
            if (io.externalTensor != t)
                continue;
            space_.forEachPoint([&](const IntVec &p) {
                if (!io.perPoint && io.boundaryIndex >= 0) {
                    auto b = std::size_t(io.boundaryIndex);
                    std::int64_t edge =
                            io.isInput ? 0 : space_bounds[b] - 1;
                    if (p[b] != edge)
                        return;
                }
                fired = true;
                IntVec coord;
                coord.reserve(io.externalCoords.size());
                for (const auto &expr : io.externalCoords)
                    coord.push_back(expr.evaluate(p, space_bounds));
                coords.insert(std::move(coord));
            });
        }
        if (!fired)
            continue; // generate() plans no regfile for this tensor
        double searched = double(std::int64_t(coords.size()));
        double delay = 0.3 + timing_.regfileSearchPerLog2Entries *
                                     std::log2(std::max(searched, 2.0));
        floor = std::max(floor, delay);
    }
    constantDelayFloor_ = floor;
}

AnalyticScore
AnalyticCostModel::score(const dataflow::SpaceTimeTransform &transform)
{
    return score(transform.matrix().cells());
}

AnalyticScore
AnalyticCostModel::score(std::span<const std::int64_t> cells)
{
    int d = dims_;
    int sd = d - 1;
    require(cells.size() == std::size_t(d) * std::size_t(d),
            "transform dimensionality must match the cost model");
    AnalyticScore result;
    auto m = [&](int r, int c) { return cells[std::size_t(r * d + c)]; };

    // Extents and schedule length: per row, the sum of per-axis
    // coefficient reaches (the analyticProbe closed form — exact).
    extents_.assign(std::size_t(sd), 0);
    for (int r = 0; r < d; r++) {
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        for (int c = 0; c < d; c++) {
            std::int64_t reach =
                    util::satMul(m(r, c), bounds_[std::size_t(c)] - 1,
                                 &result.saturated);
            if (reach < 0)
                lo = util::satAdd(lo, reach, &result.saturated);
            else
                hi = util::satAdd(hi, reach, &result.saturated);
        }
        std::int64_t span = util::satAdd(
                util::satAdd(hi, -lo, &result.saturated), 1,
                &result.saturated);
        if (r + 1 == d)
            result.scheduleLength = span;
        else
            extents_[std::size_t(r)] = span;
    }

    if (sd > 0) {
        detail::spatialKernelInto(cells.data(), d, kernel_,
                                  &result.saturated);
        result.pes =
                detail::distinctImages(bounds_, kernel_, &result.saturated);
    } else {
        result.pes = 1; // no spatial axes: one PE, no wires
    }

    // One pass over the conn classes mirrors three elaborated loops at
    // once: arrayArea's pipeline-bit sum (every alive conn), its wire-
    // track terms and timingOf's broadcast-chain scan (non-stationary
    // conns, in aliveConns order — the same order applyTransform emits
    // wire classes, so the double accumulation below is bit-identical).
    double array_delay = timing_.peArrayLogic;
    std::int64_t pipeline_bits = 0;
    wireAreas_.clear();
    spaceDelta_.assign(std::size_t(sd), 0);
    for (const auto &conn : conns_) {
        bool stationary = true;
        for (int r = 0; r < sd; r++) {
            std::int64_t component = 0;
            for (int c = 0; c < d; c++)
                component = util::satAdd(
                        component,
                        util::satMul(m(r, c), conn.diff[std::size_t(c)],
                                     &result.saturated),
                        &result.saturated);
            spaceDelta_[std::size_t(r)] = component;
            stationary = stationary && component == 0;
        }
        std::int64_t time = 0;
        for (int c = 0; c < d; c++)
            time = util::satAdd(
                    time,
                    util::satMul(m(d - 1, c), conn.diff[std::size_t(c)],
                                 &result.saturated),
                    &result.saturated);
        pipeline_bits = util::satAdd(
                pipeline_bits,
                util::satMul(time, conn.widthBits, &result.saturated),
                &result.saturated);
        if (stationary)
            continue; // not a wire under this transform

        std::int64_t length = 0;
        for (int r = 0; r < sd; r++)
            length = util::satAdd(length,
                                  std::llabs(spaceDelta_[std::size_t(r)]),
                                  &result.saturated);
        std::int64_t instances = detail::distinctImages(
                conn.subSpans, kernel_, &result.saturated);
        result.wires =
                util::satAdd(result.wires, instances, &result.saturated);
        std::int64_t track = util::satMul(instances, length,
                                          &result.saturated);
        result.wireLength =
                util::satAdd(result.wireLength, track, &result.saturated);
        wireAreas_.push_back(double(track) * double(conn.widthBits) *
                             area_.wireTrackBit);
        if (time <= 0) {
            // Unpipelined broadcast: traverses its full axis extent in
            // one cycle (the timingOf chain scan, registers == 0).
            std::int64_t chain = 0;
            for (int r = 0; r < sd; r++) {
                if (spaceDelta_[std::size_t(r)] != 0)
                    chain = std::max<std::int64_t>(
                            chain,
                            extents_[std::size_t(r)] /
                                    std::llabs(
                                            spaceDelta_[std::size_t(r)]));
            }
            array_delay = std::max(array_delay,
                                   timing_.peArrayLogic +
                                           double(chain) *
                                                   timing_.wirePerUnitLength);
        }
    }

    // arrayArea casts the per-conn time delta to int; outside that
    // range the elaborated sum is meaningless too, so clamp + flag.
    if (pipeline_bits > std::numeric_limits<int>::max() ||
        pipeline_bits < std::numeric_limits<int>::min()) {
        result.saturated = true;
        pipeline_bits = std::numeric_limits<int>::max();
    }
    double area = double(result.pes) *
                  model::peArea(area_, macBits_, int(pipeline_bits),
                                /*stellar_generated=*/true);
    for (double term : wireAreas_)
        area += term;
    result.areaUm2 = area;

    double path = std::max(array_delay, constantDelayFloor_);
    result.fmaxMhz = 1000.0 / path;
    double seconds =
            double(result.scheduleLength) / (result.fmaxMhz * 1e6);
    result.score = seconds * result.areaUm2;
    return result;
}

} // namespace stellar::accel
