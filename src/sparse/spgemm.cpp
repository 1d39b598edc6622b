#include "sparse/spgemm.hpp"

#include <algorithm>
#include <map>

#include "util/logging.hpp"

namespace stellar::sparse
{

CsrMatrix
spgemmGustavson(const CsrMatrix &a, const CsrMatrix &b)
{
    require(a.cols() == b.rows(), "SpGEMM shape mismatch");
    CooMatrix coo;
    coo.rows = a.rows();
    coo.cols = b.cols();
    std::map<std::int64_t, double> accumulator;
    for (std::int64_t i = 0; i < a.rows(); i++) {
        accumulator.clear();
        for (auto ai = a.rowPtr()[std::size_t(i)];
                ai < a.rowPtr()[std::size_t(i + 1)]; ai++) {
            auto k = a.colIdx()[std::size_t(ai)];
            double av = a.values()[std::size_t(ai)];
            for (auto bi = b.rowPtr()[std::size_t(k)];
                    bi < b.rowPtr()[std::size_t(k + 1)]; bi++) {
                accumulator[b.colIdx()[std::size_t(bi)]] +=
                        av * b.values()[std::size_t(bi)];
            }
        }
        for (const auto &[col, value] : accumulator)
            if (value != 0.0)
                coo.entries.push_back(CooEntry{i, col, value});
    }
    return cooToCsr(coo);
}

bool
Fiber::sorted() const
{
    for (std::size_t i = 1; i < coords.size(); i++)
        if (coords[i - 1] >= coords[i])
            return false;
    return true;
}

std::int64_t
PartialMatrix::totalElements() const
{
    std::int64_t total = 0;
    for (const auto &fiber : rowFibers)
        total += fiber.size();
    return total;
}

std::int64_t
PartialMatrix::maxFiberLen() const
{
    std::int64_t worst = 0;
    for (const auto &fiber : rowFibers)
        worst = std::max(worst, fiber.size());
    return worst;
}

double
PartialMatrix::imbalance() const
{
    if (rowFibers.empty())
        return 1.0;
    double mean = double(totalElements()) / double(rowFibers.size());
    return mean == 0.0 ? 1.0 : double(maxFiberLen()) / mean;
}

std::vector<PartialMatrix>
outerProductPartials(const CscMatrix &a, const CsrMatrix &b)
{
    require(a.cols() == b.rows(), "outer-product shape mismatch");
    std::vector<PartialMatrix> partials;
    for (std::int64_t k = 0; k < a.cols(); k++) {
        if (a.colNnz(k) == 0 ||
                b.rowPtr()[std::size_t(k)] == b.rowPtr()[std::size_t(k + 1)]) {
            continue;
        }
        PartialMatrix partial;
        for (auto ai = a.colPtr()[std::size_t(k)];
                ai < a.colPtr()[std::size_t(k + 1)]; ai++) {
            auto i = a.rowIdx()[std::size_t(ai)];
            double av = a.values()[std::size_t(ai)];
            Fiber fiber;
            for (auto bi = b.rowPtr()[std::size_t(k)];
                    bi < b.rowPtr()[std::size_t(k + 1)]; bi++) {
                fiber.coords.push_back(b.colIdx()[std::size_t(bi)]);
                fiber.values.push_back(av * b.values()[std::size_t(bi)]);
            }
            partial.rowIds.push_back(i);
            partial.rowFibers.push_back(std::move(fiber));
        }
        partials.push_back(std::move(partial));
    }
    return partials;
}

CsrMatrix
mergePartials(std::int64_t rows, std::int64_t cols,
              const std::vector<PartialMatrix> &partials)
{
    CooMatrix coo;
    coo.rows = rows;
    coo.cols = cols;
    for (const auto &partial : partials) {
        for (std::size_t f = 0; f < partial.rowFibers.size(); f++) {
            const auto &fiber = partial.rowFibers[f];
            for (std::size_t e = 0; e < fiber.coords.size(); e++) {
                coo.entries.push_back(CooEntry{partial.rowIds[f],
                                               fiber.coords[e],
                                               fiber.values[e]});
            }
        }
    }
    return cooToCsr(coo);
}

Fiber
mergeFibers(const Fiber &a, const Fiber &b)
{
    invariant(a.sorted() && b.sorted(), "mergeFibers needs sorted inputs");
    Fiber out;
    out.coords.reserve(a.coords.size() + b.coords.size());
    out.values.reserve(a.coords.size() + b.coords.size());
    std::size_t ia = 0, ib = 0;
    while (ia < a.coords.size() || ib < b.coords.size()) {
        bool take_a = ib >= b.coords.size() ||
                      (ia < a.coords.size() &&
                       a.coords[ia] <= b.coords[ib]);
        bool take_b = ia >= a.coords.size() ||
                      (ib < b.coords.size() &&
                       b.coords[ib] <= a.coords[ia]);
        if (take_a && take_b) {
            out.coords.push_back(a.coords[ia]);
            out.values.push_back(a.values[ia] + b.values[ib]);
            ia++;
            ib++;
        } else if (take_a) {
            out.coords.push_back(a.coords[ia]);
            out.values.push_back(a.values[ia]);
            ia++;
        } else {
            out.coords.push_back(b.coords[ib]);
            out.values.push_back(b.values[ib]);
            ib++;
        }
    }
    return out;
}

std::int64_t
spgemmMultiplies(const CsrMatrix &a, const CsrMatrix &b)
{
    require(a.cols() == b.rows(), "SpGEMM shape mismatch");
    std::int64_t total = 0;
    for (std::int64_t i = 0; i < a.rows(); i++) {
        for (auto ai = a.rowPtr()[std::size_t(i)];
                ai < a.rowPtr()[std::size_t(i + 1)]; ai++) {
            auto k = a.colIdx()[std::size_t(ai)];
            total += b.rowNnz(k);
        }
    }
    return total;
}

} // namespace stellar::sparse
