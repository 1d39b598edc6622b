/**
 * @file
 * Small dense integer and rational matrices.
 *
 * These back the space-time transforms of Section III-B: the transform T is
 * an invertible integer matrix, applied to integer iteration vectors, and
 * inverted exactly (via the adjugate) to recover tensor iterators from
 * space-time coordinates inside PEs (Fig 11).
 */

#ifndef STELLAR_UTIL_INT_MATRIX_HPP
#define STELLAR_UTIL_INT_MATRIX_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/fraction.hpp"

namespace stellar
{

using IntVec = std::vector<std::int64_t>;
using FracVec = std::vector<Fraction>;

class FracMatrix;

/** A small, dense, row-major matrix of 64-bit integers. */
class IntMatrix
{
  public:
    IntMatrix() : rows_(0), cols_(0) {}
    IntMatrix(int rows, int cols);

    /** Build from a row-major nested initializer, e.g. {{1,0},{0,1}}. */
    IntMatrix(std::initializer_list<std::initializer_list<std::int64_t>> rows);

    static IntMatrix identity(int n);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    std::int64_t &at(int r, int c);
    std::int64_t at(int r, int c) const;

    /** The entries, row-major. */
    std::span<const std::int64_t> cells() const { return data_; }

    IntVec row(int r) const;
    IntVec col(int c) const;

    IntMatrix operator*(const IntMatrix &other) const;
    IntVec operator*(const IntVec &v) const;
    IntMatrix operator+(const IntMatrix &other) const;
    IntMatrix operator-(const IntMatrix &other) const;
    bool operator==(const IntMatrix &other) const = default;

    IntMatrix transpose() const;

    /** Exact determinant (see rowMajorDeterminant). */
    std::int64_t determinant() const;

    bool isSquare() const { return rows_ == cols_; }
    bool isInvertible() const;

    /** Exact inverse as a rational matrix; fatal if singular. */
    FracMatrix inverse() const;

    /** Exact inverse, or nullopt if singular; the determinant is
     *  evaluated once. */
    std::optional<FracMatrix> tryInverse() const;

    std::string toString() const;

  private:
    int rows_;
    int cols_;
    std::vector<std::int64_t> data_;
};

/** A small, dense, row-major matrix of exact rationals. */
class FracMatrix
{
  public:
    FracMatrix() : rows_(0), cols_(0) {}
    FracMatrix(int rows, int cols);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    Fraction &at(int r, int c);
    const Fraction &at(int r, int c) const;

    FracVec operator*(const FracVec &v) const;
    FracVec operator*(const IntVec &v) const;
    FracMatrix operator*(const FracMatrix &other) const;
    bool operator==(const FracMatrix &other) const = default;

    /** True when every entry is integral. */
    bool isIntegral() const;

    /** Convert to an integer matrix; panics when not integral. */
    IntMatrix toIntMatrix() const;

    std::string toString() const;

  private:
    int rows_;
    int cols_;
    std::vector<Fraction> data_;
};

/**
 * Exact determinant of the n x n row-major matrix at `cells`, by cofactor
 * expansion along row 0 (written out in closed form for n <= 4, which
 * never allocates). Zero entries of row 0 are skipped at every level, so
 * their minors are never evaluated and cannot overflow.
 */
std::int64_t rowMajorDeterminant(const std::int64_t *cells, int n);

/** Determinant of the n x n row-major matrix at `cells` with row
 *  `skip_row` and column `skip_col` removed; heap-free for n <= 4. */
std::int64_t rowMajorMinor(const std::int64_t *cells, int n, int skip_row,
                           int skip_col);

/** Element-wise difference a - b of equal-length vectors. */
IntVec vecSub(const IntVec &a, const IntVec &b);

/** Element-wise sum of equal-length vectors. */
IntVec vecAdd(const IntVec &a, const IntVec &b);

/** Sum of absolute values (L1 norm), used for wire-length estimates. */
std::int64_t vecL1(const IntVec &v);

/** True when every component is zero. */
bool vecIsZero(const IntVec &v);

std::string vecToString(const IntVec &v);
std::string vecToString(const FracVec &v);

} // namespace stellar

#endif // STELLAR_UTIL_INT_MATRIX_HPP
