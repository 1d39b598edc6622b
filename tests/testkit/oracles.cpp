#include "testkit/oracles.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "util/logging.hpp"

namespace stellar::testkit
{

using dataflow::EnumerateOptions;
using dataflow::SpaceTimeTransform;

std::vector<SpaceTimeTransform>
collectTransforms(const func::FunctionalSpec &spec,
                  const EnumerateOptions &options,
                  dataflow::EnumerateStats *stats)
{
    std::vector<SpaceTimeTransform> found;
    dataflow::forEachTransform(
            spec, options,
            [&](const dataflow::EnumeratedTransform &item) {
                found.push_back(item.transform);
                return true;
            },
            stats);
    return found;
}

namespace
{

/** The serial oracle's cap on the code space. */
constexpr std::int64_t kMaxMaterializedCodes = 100000000;

/** A code that survived decode, invertibility, and causality checks. */
struct RawCandidate
{
    IntMatrix matrix;
    std::vector<std::int64_t> signature;
};

/**
 * Decode one coefficient code and run the per-candidate filters;
 * nullopt when rejected.
 */
std::optional<RawCandidate>
candidateAt(std::int64_t code, int n, std::int64_t min_coeff,
            std::int64_t range,
            const std::vector<func::Recurrence> &recurrences,
            const EnumerateOptions &options)
{
    IntMatrix m(n, n);
    std::int64_t rest = code;
    for (int r = 0; r < n; r++) {
        for (int c = 0; c < n; c++) {
            m.at(r, c) = min_coeff + rest % range;
            rest /= range;
        }
    }
    if (!m.isInvertible())
        return std::nullopt;

    // Causality + wiring constraints over the recurrences.
    std::vector<IntVec> displacements;
    for (const auto &rec : recurrences) {
        IntVec st = m * rec.diff;
        std::int64_t dt = st.back();
        if (dt < 0 || (dt == 0 && !options.allowBroadcast))
            return std::nullopt;
        std::int64_t hops = 0;
        for (std::size_t axis = 0; axis + 1 < st.size(); axis++)
            hops += st[axis] < 0 ? -st[axis] : st[axis];
        if (hops > options.maxHopLength)
            return std::nullopt;
        displacements.push_back(std::move(st));
    }

    // Canonical signature modulo spatial-axis permutation and
    // reflection: per-axis columns of |displacement|, sorted, plus
    // the time displacements.
    RawCandidate candidate;
    candidate.matrix = std::move(m);
    if (!displacements.empty()) {
        std::size_t dims = displacements[0].size();
        std::vector<IntVec> columns;
        for (std::size_t axis = 0; axis + 1 < dims; axis++) {
            IntVec column;
            for (const auto &st : displacements) {
                std::int64_t v = st[axis];
                column.push_back(v < 0 ? -v : v);
            }
            columns.push_back(std::move(column));
        }
        std::sort(columns.begin(), columns.end());
        for (const auto &column : columns)
            candidate.signature.insert(candidate.signature.end(),
                                       column.begin(), column.end());
        for (const auto &st : displacements)
            candidate.signature.push_back(st.back());
    }
    return candidate;
}

/** Enumerate the points at which an IOConn class fires. */
template <typename Fn>
void
forEachIoPoint(const core::IterationSpace &space, const core::IOConn &io,
               Fn &&fn)
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

} // namespace

std::vector<SpaceTimeTransform>
enumerateTransformsOracle(const func::FunctionalSpec &spec,
                          const EnumerateOptions &options)
{
    int n = spec.numIndices();
    require(n >= 1 && n <= 4,
            "transform enumeration supports 1 to 4 iterators");
    std::int64_t range = options.maxCoeff - options.minCoeff + 1;
    require(range >= 2, "coefficient range must span at least two values");

    auto recurrences = spec.recurrences();

    std::int64_t cells = std::int64_t(n) * n;
    std::int64_t total = 1;
    for (std::int64_t c = 0; c < cells; c++) {
        total *= range;
        if (total > kMaxMaterializedCodes) {
            fatal("transform enumeration space too large; narrow the "
                  "coefficient range");
        }
    }

    std::vector<SpaceTimeTransform> found;
    std::set<std::vector<std::int64_t>> signatures;
    for (std::int64_t code = 0; code < total; code++) {
        auto candidate = candidateAt(code, n, options.minCoeff, range,
                                     recurrences, options);
        if (!candidate)
            continue;
        if (!signatures.insert(candidate->signature).second)
            continue; // same displacement structure as before
        found.emplace_back(std::move(candidate->matrix),
                           "enumerated-" + std::to_string(found.size()));
        if (found.size() >= options.limit)
            break;
    }
    return found;
}

core::SpatialArray
applyTransformNaive(const core::IterationSpace &space,
                    const SpaceTimeTransform &transform)
{
    require(transform.dims() == space.numIndices(),
            "transform dimensionality must match the iteration space");

    // Fold points onto PEs.
    std::vector<core::ProcessingElement> pes;
    std::map<IntVec, std::size_t> pe_index;
    std::int64_t min_time = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_time = std::numeric_limits<std::int64_t>::min();
    space.forEachPoint([&](const IntVec &p) {
        IntVec st = transform.apply(p);
        std::int64_t t = st.back();
        st.pop_back();
        auto [it, inserted] = pe_index.try_emplace(st, pes.size());
        if (inserted) {
            core::ProcessingElement pe;
            pe.position = st;
            pe.firstTime = t;
            pe.lastTime = t;
            pes.push_back(std::move(pe));
        }
        auto &pe = pes[it->second];
        pe.foldedPoints++;
        pe.firstTime = std::min(pe.firstTime, t);
        pe.lastTime = std::max(pe.lastTime, t);
        min_time = std::min(min_time, t);
        max_time = std::max(max_time, t);
    });

    // Surviving conn classes become wires.
    std::vector<core::PeWire> wires;
    for (const auto &conn : space.aliveConns()) {
        auto delta = transform.deltaOf(conn.diff);
        if (vecIsZero(delta.space))
            continue; // stationary: internal PE register, not a wire
        core::PeWire wire;
        wire.tensor = conn.tensor;
        wire.spaceDelta = delta.space;
        wire.registers = delta.time;
        wire.bundleSize = conn.bundled ? conn.bundleSize : 1;
        wire.wireLength = vecL1(delta.space);
        // Physical instances: distinct (source PE -> dest PE) pairs.
        std::set<IntVec> sources;
        space.forEachPoint([&](const IntVec &p) {
            IntVec src = vecSub(p, conn.diff);
            if (space.isInterior(src))
                sources.insert(transform.spaceOf(src));
        });
        wire.instances = std::int64_t(sources.size());
        wires.push_back(std::move(wire));
    }

    // IOConn classes become regfile ports.
    std::vector<core::PePortClass> ports;
    for (const auto &io : space.ioConns()) {
        core::PePortClass port;
        port.tensor = io.tensor;
        port.externalTensor = io.externalTensor;
        port.isInput = io.isInput;
        port.perPoint = io.perPoint;
        std::set<IntVec> port_pes;
        std::map<std::int64_t, std::int64_t> per_cycle;
        forEachIoPoint(space, io, [&](const IntVec &p) {
            port_pes.insert(transform.spaceOf(p));
            per_cycle[transform.timeOf(p)]++;
        });
        port.portCount = std::int64_t(port_pes.size());
        for (const auto &[t, n] : per_cycle)
            port.maxPerCycle = std::max(port.maxPerCycle, n);
        ports.push_back(std::move(port));
    }
    return core::SpatialArray(transform, std::move(pes), std::move(wires),
                              std::move(ports), max_time - min_time + 1);
}

sparse::PartialMatrix
mergePartialPair(const sparse::PartialMatrix &a,
                 const sparse::PartialMatrix &b)
{
    sparse::PartialMatrix merged;
    std::size_t ia = 0, ib = 0;
    while (ia < a.rowIds.size() || ib < b.rowIds.size()) {
        bool take_a = ib == b.rowIds.size() ||
                      (ia < a.rowIds.size() && a.rowIds[ia] <= b.rowIds[ib]);
        bool take_b = ia == a.rowIds.size() ||
                      (ib < b.rowIds.size() && b.rowIds[ib] <= a.rowIds[ia]);
        std::int64_t row = take_a ? a.rowIds[ia] : b.rowIds[ib];
        if (!merged.rowIds.empty() && row <= merged.rowIds.back())
            fatal("merged pair: partial-matrix rowIds must be strictly "
                  "increasing, but row " + std::to_string(row) +
                  " follows row " + std::to_string(merged.rowIds.back()));
        merged.rowIds.push_back(row);
        if (take_a && take_b)
            merged.rowFibers.push_back(sparse::mergeFibers(
                    a.rowFibers[ia++], b.rowFibers[ib++]));
        else if (take_a)
            merged.rowFibers.push_back(a.rowFibers[ia++]);
        else
            merged.rowFibers.push_back(b.rowFibers[ib++]);
    }
    return merged;
}

} // namespace stellar::testkit
