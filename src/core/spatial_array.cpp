#include "core/spatial_array.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/logging.hpp"
#include "util/saturate.hpp"
#include "util/watchdog.hpp"

namespace stellar::core
{

SpatialArray::SpatialArray(dataflow::SpaceTimeTransform transform,
                           std::vector<ProcessingElement> pes,
                           std::vector<PeWire> wires,
                           std::vector<PePortClass> ports,
                           std::int64_t scheduleLength)
    : transform_(std::move(transform)), pes_(std::move(pes)),
      wires_(std::move(wires)), ports_(std::move(ports)),
      scheduleLength_(scheduleLength)
{
}

IntVec
SpatialArray::extents() const
{
    if (pes_.empty())
        return {};
    std::size_t dims = pes_[0].position.size();
    IntVec lo(dims, std::numeric_limits<std::int64_t>::max());
    IntVec hi(dims, std::numeric_limits<std::int64_t>::min());
    for (const auto &pe : pes_) {
        for (std::size_t d = 0; d < dims; d++) {
            lo[d] = std::min(lo[d], pe.position[d]);
            hi[d] = std::max(hi[d], pe.position[d]);
        }
    }
    IntVec extent(dims);
    for (std::size_t d = 0; d < dims; d++)
        extent[d] = hi[d] - lo[d] + 1;
    return extent;
}

std::int64_t
SpatialArray::totalWires() const
{
    std::int64_t total = 0;
    for (const auto &wire : wires_)
        total += wire.instances;
    return total;
}

std::int64_t
SpatialArray::totalWireLength() const
{
    std::int64_t total = 0;
    for (const auto &wire : wires_)
        total += wire.instances * wire.wireLength;
    return total;
}

std::int64_t
SpatialArray::totalPorts() const
{
    std::int64_t total = 0;
    for (const auto &port : ports_)
        total += port.portCount;
    return total;
}

std::int64_t
SpatialArray::maxFolding() const
{
    std::int64_t max = 0;
    for (const auto &pe : pes_)
        max = std::max(max, pe.foldedPoints);
    return max;
}

std::string
SpatialArray::toString(const func::FunctionalSpec &spec) const
{
    std::ostringstream os;
    os << "SpatialArray (" << transform_.name() << "): " << numPes()
       << " PEs, extents " << vecToString(extents()) << ", schedule "
       << scheduleLength_ << " steps\n";
    for (const auto &wire : wires_) {
        os << "  wire " << spec.tensorNames()[std::size_t(wire.tensor)]
           << " delta " << vecToString(wire.spaceDelta) << " regs "
           << wire.registers << " x" << wire.instances;
        if (wire.bundleSize > 1)
            os << " bundle=" << wire.bundleSize;
        os << "\n";
    }
    for (const auto &port : ports_) {
        os << "  port " << spec.tensorNames()[std::size_t(port.tensor)]
           << (port.isInput ? " in" : " out") << " x" << port.portCount
           << (port.perPoint ? " (per-point)" : " (boundary)")
           << " peak/cycle " << port.maxPerCycle << "\n";
    }
    return os.str();
}

namespace
{

/** Enumerate the points at which an IOConn class fires. */
template <typename Fn>
void
forEachIoPoint(const IterationSpace &space, const IOConn &io, Fn &&fn)
{
    const auto &bounds = space.bounds();
    space.forEachPoint([&](const IntVec &p) {
        if (io.perPoint || io.boundaryIndex < 0) {
            fn(p);
            return;
        }
        auto b = std::size_t(io.boundaryIndex);
        std::int64_t edge = io.isInput ? 0 : bounds[b] - 1;
        if (p[b] == edge)
            fn(p);
    });
}

/** Flat scratch tables above this many slots become hash maps. */
constexpr std::int64_t kDenseKeyLimit = std::int64_t(1) << 21;

/**
 * The affine image of the bounds box under a transform: per-spatial-axis
 * [lo, hi] ranges, mixed-radix strides that flatten a spatial position
 * into one int64 key, and the time range. `dense` holds when neither
 * the box nor the time range exceeds kDenseKeyLimit slots, so the
 * walk's tables can be flat vectors.
 */
struct WalkGeometry
{
    int spaceDims = 0;
    IntVec lo;                        //!< per-axis image minimum
    std::vector<std::int64_t> stride; //!< mixed-radix key strides
    std::int64_t boxSize = 1;
    std::int64_t timeLo = 0;
    std::int64_t timeHi = 0;
    bool dense = false;

    std::int64_t
    keyOf(const IntVec &st) const
    {
        std::int64_t key = 0;
        for (int r = 0; r < spaceDims; r++)
            key += (st[std::size_t(r)] - lo[std::size_t(r)]) *
                   stride[std::size_t(r)];
        return key;
    }
};

/** The walk geometry of `transform` over `bounds`. Throws FatalError
 *  when any of it leaves the int64 range, so no walk ever computes an
 *  overflowing position, key, or timestep. */
WalkGeometry
walkGeometry(const dataflow::SpaceTimeTransform &transform,
             const IntVec &bounds)
{
    const auto &m = transform.matrix();
    WalkGeometry g;
    g.spaceDims = m.rows() - 1;
    g.lo.assign(std::size_t(g.spaceDims), 0);
    g.stride.assign(std::size_t(g.spaceDims), 0);

    bool saturated = false;
    std::vector<std::int64_t> extent(std::size_t(g.spaceDims), 1);
    for (int r = 0; r < m.rows(); r++) {
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        for (int c = 0; c < m.cols(); c++) {
            std::int64_t reach = util::satMul(
                    m.at(r, c), bounds[std::size_t(c)] - 1, &saturated);
            if (reach < 0)
                lo = util::satAdd(lo, reach, &saturated);
            else
                hi = util::satAdd(hi, reach, &saturated);
        }
        if (r + 1 == m.rows()) {
            g.timeLo = lo;
            g.timeHi = hi;
        } else {
            g.lo[std::size_t(r)] = lo;
            extent[std::size_t(r)] = util::satAdd(
                    util::satAdd(hi, -lo, &saturated), 1, &saturated);
        }
    }

    // Row-major strides, last spatial axis fastest.
    for (int r = g.spaceDims - 1; r >= 0; r--) {
        g.stride[std::size_t(r)] = g.boxSize;
        g.boxSize = util::satMul(g.boxSize, extent[std::size_t(r)],
                                 &saturated);
    }
    std::int64_t time_span = util::satAdd(
            util::satAdd(g.timeHi, -g.timeLo, &saturated), 1, &saturated);
    require(!saturated,
            "transform maps the bounds box outside the int64 range");
    g.dense = g.boxSize <= kDenseKeyLimit && time_span <= kDenseKeyLimit;
    return g;
}

/**
 * One per-position table of the fused walk, keyed by a flat spatial key
 * or a timestep offset. Dense, it is a flat vector over [0, size);
 * otherwise a hash map holding only the keys the walk touches. An
 * unwritten key reads as `fill` either way.
 */
template <typename T, bool Dense>
class KeyTable
{
  public:
    KeyTable(std::int64_t size, T fill) : fill_(fill)
    {
        if constexpr (Dense)
            flat_.assign(std::size_t(size), fill);
    }

    T &
    operator[](std::int64_t key)
    {
        if constexpr (Dense)
            return flat_[std::size_t(key)];
        else
            return hashed_.try_emplace(key, fill_).first->second;
    }

    /** Largest value written, or `fill` when the table is empty. */
    T
    max() const
    {
        T best = fill_;
        for (const T &v : flat_)
            best = std::max(best, v);
        for (const auto &entry : hashed_)
            best = std::max(best, entry.second);
        return best;
    }

  private:
    T fill_;
    std::vector<T> flat_;
    std::unordered_map<std::int64_t, T> hashed_;
};

/**
 * The fused single-pass walk. One traversal of the iteration space
 * updates the PE fold table, every wire's distinct-source table, and
 * every port's PE table and cycle histogram together; spatial position,
 * flat key, and timestep are updated incrementally per point from
 * precomputed per-axis carry deltas, so the hot loop does no matrix
 * multiplies (and, with Dense tables, no heap allocation).
 */
template <bool Dense>
SpatialArray
fusedWalk(const IterationSpace &space,
          const dataflow::SpaceTimeTransform &transform,
          const WalkGeometry &g)
{
    std::vector<ProcessingElement> pes;

    const auto &bounds = space.bounds();
    const auto &m = transform.matrix();
    int n = transform.dims();
    int sd = g.spaceDims;

    // Carry deltas: an advance that increments axis a and wraps every
    // axis right of it changes the point by e_a - sum_{j>a} (b_j-1) e_j,
    // so st/key/t change by the matching linear combination of columns.
    std::vector<IntVec> delta_st(static_cast<std::size_t>(n),
                                 IntVec(std::size_t(sd), 0));
    std::vector<std::int64_t> delta_key(std::size_t(n), 0);
    std::vector<std::int64_t> delta_t(std::size_t(n), 0);
    for (int a = 0; a < n; a++) {
        for (int r = 0; r < n; r++) {
            std::int64_t v = m.at(r, a);
            for (int j = a + 1; j < n; j++)
                v -= m.at(r, j) * (bounds[std::size_t(j)] - 1);
            if (r < sd) {
                delta_st[std::size_t(a)][std::size_t(r)] = v;
                delta_key[std::size_t(a)] += v * g.stride[std::size_t(r)];
            } else {
                delta_t[std::size_t(a)] = v;
            }
        }
    }

    // PE fold table: flat spatial key -> index into pes.
    KeyTable<std::int32_t, Dense> pe_at(g.boxSize, -1);

    // Per-wire distinct-source tables, in aliveConns order.
    struct WireScratch
    {
        Point2PointConn conn;
        dataflow::SpaceTimeDelta delta;
        std::int64_t keyDelta = 0;
        std::int64_t count = 0;
        KeyTable<std::uint8_t, Dense> seen;
    };
    std::vector<WireScratch> wires;
    for (const auto &conn : space.aliveConns()) {
        auto delta = transform.deltaOf(conn.diff);
        if (vecIsZero(delta.space))
            continue; // stationary: internal PE register, not a wire
        std::int64_t key_delta = 0;
        for (int r = 0; r < sd; r++)
            key_delta += delta.space[std::size_t(r)] *
                         g.stride[std::size_t(r)];
        wires.push_back({conn, std::move(delta), key_delta, 0,
                         KeyTable<std::uint8_t, Dense>(g.boxSize, 0)});
    }

    // Per-port PE tables and cycle histograms, in ioConns order.
    struct IoScratch
    {
        const IOConn *io = nullptr;
        bool everyPoint = false;
        std::size_t axis = 0;
        std::int64_t edge = 0;
        std::int64_t count = 0;
        KeyTable<std::uint8_t, Dense> seen;
        KeyTable<std::int64_t, Dense> perCycle;
    };
    std::vector<IoScratch> ios;
    for (const auto &io : space.ioConns()) {
        bool every_point = io.perPoint || io.boundaryIndex < 0;
        std::size_t axis = every_point ? 0 : std::size_t(io.boundaryIndex);
        std::int64_t edge =
                every_point || io.isInput ? 0 : bounds[axis] - 1;
        ios.push_back({&io, every_point, axis, edge, 0,
                       KeyTable<std::uint8_t, Dense>(g.boxSize, 0),
                       KeyTable<std::int64_t, Dense>(
                               g.timeHi - g.timeLo + 1, 0)});
    }

    std::int64_t min_time = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_time = std::numeric_limits<std::int64_t>::min();

    // The walk itself, with the same batched budget-exact watchdog
    // accounting (and diagnostic dump) as IterationSpace::forEachPoint.
    util::Watchdog *dog = util::currentWatchdog();
    IntVec point(std::size_t(n), 0);
    IntVec st(std::size_t(sd), 0);
    std::int64_t key = g.keyOf(st);
    std::int64_t t = 0;
    std::int64_t left = space.numPoints();
    while (left > 0) {
        std::int64_t batch =
                std::min(IterationSpace::kWatchdogBatch, left);
        if (dog != nullptr) {
            if (dog->enabled()) {
                std::int64_t allowance = dog->remaining();
                if (allowance == 0) {
                    dog->tick(1, [&]() {
                        return "iteration-space walk, last point " +
                               vecToString(point) + " of bounds " +
                               vecToString(bounds);
                    });
                }
                batch = std::min(batch, allowance);
            }
            dog->tick(batch);
        }
        for (std::int64_t i = 0; i < batch; i++) {
            // PE folding.
            std::int32_t &slot = pe_at[key];
            if (slot < 0) {
                slot = std::int32_t(pes.size());
                ProcessingElement pe;
                pe.position = st;
                pe.firstTime = t;
                pe.lastTime = t;
                pes.push_back(std::move(pe));
            }
            auto &pe = pes[std::size_t(slot)];
            pe.foldedPoints++;
            pe.firstTime = std::min(pe.firstTime, t);
            pe.lastTime = std::max(pe.lastTime, t);
            min_time = std::min(min_time, t);
            max_time = std::max(max_time, t);

            // Distinct (source PE -> dest PE) pairs per wire class: the
            // source image key is this point's key shifted by the
            // wire's space delta, valid whenever p - diff is interior.
            for (auto &w : wires) {
                bool interior = true;
                for (int c = 0; c < n; c++) {
                    std::int64_t s = point[std::size_t(c)] -
                                     w.conn.diff[std::size_t(c)];
                    if (s < 0 || s >= bounds[std::size_t(c)]) {
                        interior = false;
                        break;
                    }
                }
                if (!interior)
                    continue;
                auto &mark = w.seen[key - w.keyDelta];
                w.count += mark == 0;
                mark = 1;
            }

            // Port PEs and per-cycle request histograms.
            for (auto &s : ios) {
                if (!s.everyPoint && point[s.axis] != s.edge)
                    continue;
                auto &mark = s.seen[key];
                s.count += mark == 0;
                mark = 1;
                s.perCycle[t - g.timeLo]++;
            }

            // Lexicographic advance with incremental st/key/t updates.
            int axis = n - 1;
            while (axis >= 0) {
                if (++point[std::size_t(axis)] < bounds[std::size_t(axis)])
                    break;
                point[std::size_t(axis)] = 0;
                axis--;
            }
            if (axis >= 0) {
                const auto &d = delta_st[std::size_t(axis)];
                for (int r = 0; r < sd; r++)
                    st[std::size_t(r)] += d[std::size_t(r)];
                key += delta_key[std::size_t(axis)];
                t += delta_t[std::size_t(axis)];
            }
        }
        left -= batch;
    }

    std::vector<PeWire> pe_wires;
    for (auto &w : wires) {
        PeWire wire;
        wire.tensor = w.conn.tensor;
        wire.spaceDelta = w.delta.space;
        wire.registers = w.delta.time;
        wire.bundleSize = w.conn.bundled ? w.conn.bundleSize : 1;
        wire.wireLength = vecL1(w.delta.space);
        wire.instances = w.count;
        pe_wires.push_back(std::move(wire));
    }

    std::vector<PePortClass> ports;
    for (auto &s : ios) {
        PePortClass port;
        port.tensor = s.io->tensor;
        port.externalTensor = s.io->externalTensor;
        port.isInput = s.io->isInput;
        port.perPoint = s.io->perPoint;
        port.portCount = s.count;
        port.maxPerCycle = s.perCycle.max();
        ports.push_back(std::move(port));
    }
    return SpatialArray(transform, std::move(pes), std::move(pe_wires),
                        std::move(ports), max_time - min_time + 1);
}

} // namespace

SpatialArray
applyTransform(const IterationSpace &space,
               const dataflow::SpaceTimeTransform &transform)
{
    require(transform.dims() == space.numIndices(),
            "transform dimensionality must match the iteration space");
    WalkGeometry g = walkGeometry(transform, space.bounds());
    return g.dense ? fusedWalk<true>(space, transform, g)
                   : fusedWalk<false>(space, transform, g);
}

mem::AccessOrder
arrayAccessOrder(const IterationSpace &space,
                 const dataflow::SpaceTimeTransform &t, int external_tensor)
{
    const auto &bounds = space.bounds();
    const auto &m = t.matrix();
    int n = t.dims();

    // The geometry check keeps every time-row product below in range.
    walkGeometry(t, bounds);
    auto time_of = [&](const IntVec &p) {
        std::int64_t time = 0;
        for (int c = 0; c < n; c++)
            time += m.at(n - 1, c) * p[std::size_t(c)];
        return time;
    };

    // Record each access with its timestep in walk order, then bucket
    // them into the steps from the first to the last access: the table
    // is exactly as long as the order it builds.
    std::vector<std::pair<std::int64_t, IntVec>> accesses;
    std::int64_t first = std::numeric_limits<std::int64_t>::max();
    std::int64_t last = std::numeric_limits<std::int64_t>::min();
    for (const auto &io : space.ioConns()) {
        if (io.externalTensor != external_tensor)
            continue;
        forEachIoPoint(space, io, [&](const IntVec &p) {
            IntVec coords;
            coords.reserve(io.externalCoords.size());
            for (const auto &expr : io.externalCoords)
                coords.push_back(expr.evaluate(p, bounds));
            std::int64_t time = time_of(p);
            first = std::min(first, time);
            last = std::max(last, time);
            accesses.emplace_back(time, std::move(coords));
        });
    }
    mem::AccessOrder order;
    if (accesses.empty())
        return order;
    std::vector<std::vector<IntVec>> steps(std::size_t(last - first + 1));
    for (auto &[time, coords] : accesses)
        steps[std::size_t(time - first)].push_back(std::move(coords));
    for (auto &step : steps)
        order.addStep(std::move(step));
    return order;
}

} // namespace stellar::core
