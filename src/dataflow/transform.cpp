#include "dataflow/transform.hpp"

#include <sstream>

#include "util/logging.hpp"

namespace stellar::dataflow
{

SpaceTimeTransform::SpaceTimeTransform(IntMatrix matrix, std::string name)
    : matrix_(std::move(matrix)), name_(std::move(name))
{
    require(matrix_.isSquare(), "space-time transform must be square");
    std::optional<FracMatrix> inverse = matrix_.tryInverse();
    require(inverse.has_value(), "space-time transform must be invertible");
    inverse_ = std::move(*inverse);
}

IntVec
SpaceTimeTransform::apply(const IntVec &point) const
{
    return matrix_ * point;
}

IntVec
SpaceTimeTransform::spaceOf(const IntVec &point) const
{
    IntVec st = apply(point);
    st.pop_back();
    return st;
}

std::int64_t
SpaceTimeTransform::timeOf(const IntVec &point) const
{
    return apply(point).back();
}

std::optional<IntVec>
SpaceTimeTransform::invert(const IntVec &space_time) const
{
    FracVec solution = inverse_ * space_time;
    IntVec point(solution.size());
    for (std::size_t i = 0; i < solution.size(); i++) {
        if (!solution[i].isInteger())
            return std::nullopt;
        point[i] = solution[i].toInteger();
    }
    return point;
}

SpaceTimeDelta
SpaceTimeTransform::deltaOf(const IntVec &recurrence_diff) const
{
    IntVec st = matrix_ * recurrence_diff;
    SpaceTimeDelta delta;
    delta.time = st.back();
    st.pop_back();
    delta.space = std::move(st);
    return delta;
}

bool
SpaceTimeTransform::isCausalFor(const func::FunctionalSpec &spec) const
{
    for (const auto &rec : spec.recurrences()) {
        if (vecIsZero(rec.diff))
            continue;
        if (deltaOf(rec.diff).time < 0)
            return false;
    }
    return true;
}

std::int64_t
SpaceTimeTransform::pipelineDepth(const IntVec &recurrence_diff) const
{
    return deltaOf(recurrence_diff).time;
}

std::string
SpaceTimeTransform::toString() const
{
    std::ostringstream os;
    os << "SpaceTimeTransform";
    if (!name_.empty())
        os << " \"" << name_ << "\"";
    os << "\n" << matrix_.toString();
    return os.str();
}

namespace dataflows
{

SpaceTimeTransform
inputStationary()
{
    // (i, j, k) -> (x, y, t) = (k, j, i + k). B(k, j) stays at PE (k, j);
    // A streams combinationally along j; partial sums (diff (0,0,1)) move
    // with (dx, dy, dt) = (1, 0, 1): vertically down, one register per hop.
    return SpaceTimeTransform(
            IntMatrix{{0, 0, 1}, {0, 1, 0}, {1, 0, 1}}, "input-stationary");
}

SpaceTimeTransform
outputStationary()
{
    // (i, j, k) -> (x, y, t) = (i, j, i + j + k). C(i, j) accumulates in
    // place at PE (i, j); A moves right and B moves down, one register per
    // hop each.
    return SpaceTimeTransform(
            IntMatrix{{1, 0, 0}, {0, 1, 0}, {1, 1, 1}}, "output-stationary");
}

SpaceTimeTransform
hexagonal()
{
    // All three iterators spatially unrolled onto a 2-D plane (det = 3):
    // each variable moves along a distinct hexagonal direction with short
    // wires, as in Bekakos et al.
    return SpaceTimeTransform(
            IntMatrix{{1, 0, -1}, {0, 1, -1}, {1, 1, 1}}, "hexagonal");
}

SpaceTimeTransform
inputStationaryPipelined(std::int64_t extra_time)
{
    // Adding j to the time row inserts `extra_time` pipeline registers
    // along the horizontal (A-streaming) axis of the input-stationary
    // array: Fig 3's more/less aggressively pipelined variants.
    IntMatrix m{{0, 0, 1}, {0, 1, 0}, {1, extra_time, 1}};
    return SpaceTimeTransform(std::move(m),
            "input-stationary-pipelined-" + std::to_string(extra_time));
}

} // namespace dataflows

} // namespace stellar::dataflow
