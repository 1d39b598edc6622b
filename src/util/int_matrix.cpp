#include "util/int_matrix.hpp"

#include <array>
#include <sstream>

#include "util/logging.hpp"

namespace stellar
{

IntMatrix::IntMatrix(int rows, int cols)
    : rows_(rows), cols_(cols), data_(std::size_t(rows) * cols, 0)
{
    require(rows >= 0 && cols >= 0, "IntMatrix dimensions must be nonnegative");
}

IntMatrix::IntMatrix(
        std::initializer_list<std::initializer_list<std::int64_t>> rows)
    : rows_(int(rows.size())), cols_(0)
{
    for (const auto &row : rows) {
        if (cols_ == 0)
            cols_ = int(row.size());
        require(int(row.size()) == cols_, "IntMatrix rows must be equal length");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

IntMatrix
IntMatrix::identity(int n)
{
    IntMatrix m(n, n);
    for (int i = 0; i < n; i++)
        m.at(i, i) = 1;
    return m;
}

std::int64_t &
IntMatrix::at(int r, int c)
{
    invariant(r >= 0 && r < rows_ && c >= 0 && c < cols_,
              "IntMatrix index out of range");
    return data_[std::size_t(r) * cols_ + c];
}

std::int64_t
IntMatrix::at(int r, int c) const
{
    invariant(r >= 0 && r < rows_ && c >= 0 && c < cols_,
              "IntMatrix index out of range");
    return data_[std::size_t(r) * cols_ + c];
}

IntVec
IntMatrix::row(int r) const
{
    IntVec out(cols_);
    for (int c = 0; c < cols_; c++)
        out[c] = at(r, c);
    return out;
}

IntVec
IntMatrix::col(int c) const
{
    IntVec out(rows_);
    for (int r = 0; r < rows_; r++)
        out[r] = at(r, c);
    return out;
}

IntMatrix
IntMatrix::operator*(const IntMatrix &other) const
{
    require(cols_ == other.rows_, "IntMatrix multiply shape mismatch");
    IntMatrix out(rows_, other.cols_);
    for (int r = 0; r < rows_; r++) {
        for (int k = 0; k < cols_; k++) {
            std::int64_t a = at(r, k);
            if (a == 0)
                continue;
            for (int c = 0; c < other.cols_; c++)
                out.at(r, c) += a * other.at(k, c);
        }
    }
    return out;
}

IntVec
IntMatrix::operator*(const IntVec &v) const
{
    require(int(v.size()) == cols_, "IntMatrix-vector shape mismatch");
    IntVec out(rows_, 0);
    for (int r = 0; r < rows_; r++)
        for (int c = 0; c < cols_; c++)
            out[r] += at(r, c) * v[c];
    return out;
}

IntMatrix
IntMatrix::operator+(const IntMatrix &other) const
{
    require(rows_ == other.rows_ && cols_ == other.cols_,
            "IntMatrix add shape mismatch");
    IntMatrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); i++)
        out.data_[i] = data_[i] + other.data_[i];
    return out;
}

IntMatrix
IntMatrix::operator-(const IntMatrix &other) const
{
    require(rows_ == other.rows_ && cols_ == other.cols_,
            "IntMatrix subtract shape mismatch");
    IntMatrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); i++)
        out.data_[i] = data_[i] - other.data_[i];
    return out;
}

IntMatrix
IntMatrix::transpose() const
{
    IntMatrix out(cols_, rows_);
    for (int r = 0; r < rows_; r++)
        for (int c = 0; c < cols_; c++)
            out.at(c, r) = at(r, c);
    return out;
}

namespace
{

/**
 * The 3x3 determinant on rows `r0`, `r1`, `r2` and columns `c0` < `c1` <
 * `c2`, expanded along `r0` with its zero entries skipped: the products
 * are exactly those of the recursive cofactor expansion.
 */
std::int64_t
det3(const std::int64_t *r0, const std::int64_t *r1, const std::int64_t *r2,
     int c0, int c1, int c2)
{
    std::int64_t det = 0;
    if (r0[c0] != 0)
        det += r0[c0] * (r1[c1] * r2[c2] - r1[c2] * r2[c1]);
    if (r0[c1] != 0)
        det += -r0[c1] * (r1[c0] * r2[c2] - r1[c2] * r2[c0]);
    if (r0[c2] != 0)
        det += r0[c2] * (r1[c0] * r2[c1] - r1[c1] * r2[c0]);
    return det;
}

} // namespace

std::int64_t
rowMajorDeterminant(const std::int64_t *cells, int n)
{
    const std::int64_t *a = cells;
    switch (n) {
    case 0:
        return 1;
    case 1:
        return a[0];
    case 2:
        return a[0] * a[3] - a[1] * a[2];
    case 3:
        return det3(a, a + 3, a + 6, 0, 1, 2);
    case 4: {
        std::int64_t det = 0;
        if (a[0] != 0)
            det += a[0] * det3(a + 4, a + 8, a + 12, 1, 2, 3);
        if (a[1] != 0)
            det += -a[1] * det3(a + 4, a + 8, a + 12, 0, 2, 3);
        if (a[2] != 0)
            det += a[2] * det3(a + 4, a + 8, a + 12, 0, 1, 3);
        if (a[3] != 0)
            det += -a[3] * det3(a + 4, a + 8, a + 12, 0, 1, 2);
        return det;
    }
    default: {
        std::int64_t det = 0;
        for (int c = 0; c < n; c++) {
            if (a[c] == 0)
                continue;
            std::int64_t sign = (c % 2 == 0) ? 1 : -1;
            det += sign * a[c] * rowMajorMinor(a, n, 0, c);
        }
        return det;
    }
    }
}

std::int64_t
rowMajorMinor(const std::int64_t *cells, int n, int skip_row, int skip_col)
{
    std::array<std::int64_t, 9> small;
    std::vector<std::int64_t> large;
    std::int64_t *minor = small.data();
    if (n > 4) {
        large.resize(std::size_t(n - 1) * std::size_t(n - 1));
        minor = large.data();
    }
    std::int64_t *out = minor;
    for (int r = 0; r < n; r++) {
        if (r == skip_row)
            continue;
        for (int c = 0; c < n; c++)
            if (c != skip_col)
                *out++ = cells[std::size_t(r) * std::size_t(n) +
                               std::size_t(c)];
    }
    return rowMajorDeterminant(minor, n - 1);
}

std::int64_t
IntMatrix::determinant() const
{
    require(isSquare(), "determinant requires a square matrix");
    return rowMajorDeterminant(data_.data(), rows_);
}

bool
IntMatrix::isInvertible() const
{
    return isSquare() && determinant() != 0;
}

FracMatrix
IntMatrix::inverse() const
{
    std::optional<FracMatrix> inv = tryInverse();
    require(inv.has_value(), "matrix is singular; no inverse exists");
    return std::move(*inv);
}

std::optional<FracMatrix>
IntMatrix::tryInverse() const
{
    require(isSquare(), "inverse requires a square matrix");
    std::int64_t det = determinant();
    if (det == 0)
        return std::nullopt;
    FracMatrix inv(rows_, cols_);
    // inverse = adjugate / det; adjugate[r][c] = cofactor[c][r].
    for (int r = 0; r < rows_; r++) {
        for (int c = 0; c < cols_; c++) {
            std::int64_t sign = ((r + c) % 2 == 0) ? 1 : -1;
            std::int64_t cof =
                    sign * rowMajorMinor(data_.data(), rows_, c, r);
            inv.at(r, c) = Fraction(cof, det);
        }
    }
    return inv;
}

std::string
IntMatrix::toString() const
{
    std::ostringstream os;
    os << "[";
    for (int r = 0; r < rows_; r++) {
        os << (r == 0 ? "[" : " [");
        for (int c = 0; c < cols_; c++)
            os << at(r, c) << (c + 1 < cols_ ? ", " : "");
        os << "]" << (r + 1 < rows_ ? "\n" : "");
    }
    os << "]";
    return os.str();
}

FracMatrix::FracMatrix(int rows, int cols)
    : rows_(rows), cols_(cols), data_(std::size_t(rows) * cols)
{
    require(rows >= 0 && cols >= 0,
            "FracMatrix dimensions must be nonnegative");
}

Fraction &
FracMatrix::at(int r, int c)
{
    invariant(r >= 0 && r < rows_ && c >= 0 && c < cols_,
              "FracMatrix index out of range");
    return data_[std::size_t(r) * cols_ + c];
}

const Fraction &
FracMatrix::at(int r, int c) const
{
    invariant(r >= 0 && r < rows_ && c >= 0 && c < cols_,
              "FracMatrix index out of range");
    return data_[std::size_t(r) * cols_ + c];
}

FracVec
FracMatrix::operator*(const FracVec &v) const
{
    require(int(v.size()) == cols_, "FracMatrix-vector shape mismatch");
    FracVec out(rows_);
    for (int r = 0; r < rows_; r++)
        for (int c = 0; c < cols_; c++)
            out[r] += at(r, c) * v[c];
    return out;
}

FracVec
FracMatrix::operator*(const IntVec &v) const
{
    FracVec fv(v.begin(), v.end());
    return *this * fv;
}

FracMatrix
FracMatrix::operator*(const FracMatrix &other) const
{
    require(cols_ == other.rows_, "FracMatrix multiply shape mismatch");
    FracMatrix out(rows_, other.cols_);
    for (int r = 0; r < rows_; r++)
        for (int k = 0; k < cols_; k++)
            for (int c = 0; c < other.cols_; c++)
                out.at(r, c) += at(r, k) * other.at(k, c);
    return out;
}

bool
FracMatrix::isIntegral() const
{
    for (const auto &f : data_)
        if (!f.isInteger())
            return false;
    return true;
}

IntMatrix
FracMatrix::toIntMatrix() const
{
    invariant(isIntegral(), "FracMatrix is not integral");
    IntMatrix out(rows_, cols_);
    for (int r = 0; r < rows_; r++)
        for (int c = 0; c < cols_; c++)
            out.at(r, c) = at(r, c).toInteger();
    return out;
}

std::string
FracMatrix::toString() const
{
    std::ostringstream os;
    os << "[";
    for (int r = 0; r < rows_; r++) {
        os << (r == 0 ? "[" : " [");
        for (int c = 0; c < cols_; c++)
            os << at(r, c).toString() << (c + 1 < cols_ ? ", " : "");
        os << "]" << (r + 1 < rows_ ? "\n" : "");
    }
    os << "]";
    return os.str();
}

IntVec
vecSub(const IntVec &a, const IntVec &b)
{
    require(a.size() == b.size(), "vecSub length mismatch");
    IntVec out(a.size());
    for (std::size_t i = 0; i < a.size(); i++)
        out[i] = a[i] - b[i];
    return out;
}

IntVec
vecAdd(const IntVec &a, const IntVec &b)
{
    require(a.size() == b.size(), "vecAdd length mismatch");
    IntVec out(a.size());
    for (std::size_t i = 0; i < a.size(); i++)
        out[i] = a[i] + b[i];
    return out;
}

std::int64_t
vecL1(const IntVec &v)
{
    std::int64_t sum = 0;
    for (auto x : v)
        sum += x < 0 ? -x : x;
    return sum;
}

bool
vecIsZero(const IntVec &v)
{
    for (auto x : v)
        if (x != 0)
            return false;
    return true;
}

std::string
vecToString(const IntVec &v)
{
    std::ostringstream os;
    os << "(";
    for (std::size_t i = 0; i < v.size(); i++)
        os << v[i] << (i + 1 < v.size() ? ", " : "");
    os << ")";
    return os.str();
}

std::string
vecToString(const FracVec &v)
{
    std::ostringstream os;
    os << "(";
    for (std::size_t i = 0; i < v.size(); i++)
        os << v[i].toString() << (i + 1 < v.size() ? ", " : "");
    os << ")";
    return os.str();
}

} // namespace stellar
