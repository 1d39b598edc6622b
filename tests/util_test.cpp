/**
 * @file
 * Unit and property tests for the util substrate: fractions, integer and
 * rational matrices, RNG, stats, and string helpers.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/failure.hpp"
#include "util/fraction.hpp"
#include "util/int_matrix.hpp"
#include "util/saturate.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace stellar
{
namespace
{

TEST(Fraction, NormalizesOnConstruction)
{
    Fraction f(4, 8);
    EXPECT_EQ(f.num(), 1);
    EXPECT_EQ(f.den(), 2);
}

TEST(Fraction, NegativeDenominatorMovesSign)
{
    Fraction f(3, -6);
    EXPECT_EQ(f.num(), -1);
    EXPECT_EQ(f.den(), 2);
}

TEST(Fraction, ZeroHasCanonicalForm)
{
    Fraction f(0, 17);
    EXPECT_EQ(f.num(), 0);
    EXPECT_EQ(f.den(), 1);
    EXPECT_TRUE(f.isZero());
}

TEST(Fraction, Arithmetic)
{
    Fraction half(1, 2), third(1, 3);
    EXPECT_EQ(half + third, Fraction(5, 6));
    EXPECT_EQ(half - third, Fraction(1, 6));
    EXPECT_EQ(half * third, Fraction(1, 6));
    EXPECT_EQ(half / third, Fraction(3, 2));
    EXPECT_EQ(-half, Fraction(-1, 2));
}

TEST(Fraction, Ordering)
{
    EXPECT_LT(Fraction(1, 3), Fraction(1, 2));
    EXPECT_GT(Fraction(-1, 3), Fraction(-1, 2));
    EXPECT_EQ(Fraction(2, 4), Fraction(1, 2));
}

TEST(Fraction, IntegerConversion)
{
    EXPECT_TRUE(Fraction(6, 3).isInteger());
    EXPECT_EQ(Fraction(6, 3).toInteger(), 2);
    EXPECT_FALSE(Fraction(1, 3).isInteger());
    EXPECT_THROW(Fraction(1, 3).toInteger(), PanicError);
}

TEST(Fraction, DivisionByZeroThrows)
{
    EXPECT_THROW(Fraction(1, 0), FatalError);
    EXPECT_THROW(Fraction(1) / Fraction(0), FatalError);
}

TEST(Fraction, DivisionByZeroClassifiesAsUserSpec)
{
    // Downstream failure accounting depends on a zero denominator
    // surfacing as a user-spec failure, not an internal panic.
    try {
        Fraction(1) / Fraction(0);
        FAIL() << "division by zero did not throw";
    } catch (...) {
        auto failure = util::classifyException(std::current_exception(),
                                               "transform.algebra", "c0");
        EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
        EXPECT_EQ(failure.stage, "transform.algebra");
    }
}

TEST(Fraction, Int64MinNormalizesWithoutOverflow)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

    // -2^63 / -2^63 reduces to 1 — the naive |gcd| path would negate
    // INT64_MIN (UB) before ever dividing.
    Fraction whole(kMin, kMin);
    EXPECT_EQ(whole.num(), 1);
    EXPECT_EQ(whole.den(), 1);

    // -2^63 / 2 reduces to -2^62 / 1.
    Fraction halved(kMin, 2);
    EXPECT_EQ(halved.num(), kMin / 2);
    EXPECT_EQ(halved.den(), 1);

    // An even denominator shares a factor of 2 with -2^63.
    Fraction shared(kMin, 6);
    EXPECT_EQ(shared.num(), kMin / 2);
    EXPECT_EQ(shared.den(), 3);

    // -2^63 / -1 canonicalizes to 2^63 / 1, which is unrepresentable:
    // a FatalError, not a silent wrap.
    EXPECT_THROW(Fraction(kMin, -1), FatalError);

    // 1 / -2^63 needs denominator 2^63 after the sign move — likewise
    // unrepresentable.
    EXPECT_THROW(Fraction(1, kMin), FatalError);

    // An odd numerator over -2^63 shares no factor: same overflow.
    EXPECT_THROW(Fraction(3, kMin), FatalError);

    // But an even one reduces below the limit first.
    Fraction reduced(2, kMin);
    EXPECT_EQ(reduced.num(), -1);
    EXPECT_EQ(reduced.den(), kMin / -2);
}

TEST(Fraction, NegatingInt64MinThrows)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    Fraction f(kMin, 1);
    EXPECT_EQ(f.num(), kMin);
    EXPECT_THROW(-f, FatalError);
    // The nearest representable value negates fine: -(kMin+1) == kMax.
    EXPECT_EQ(-Fraction(kMin + 1, 1),
              Fraction(std::numeric_limits<std::int64_t>::max(), 1));
}

/** The message of the `Error` that `fn` throws ("<no exception>" if none). */
template <typename Error, typename Fn>
std::string
thrownMessage(Fn fn)
{
    try {
        fn();
    } catch (const Error &e) {
        return e.what();
    }
    return "<no exception>";
}

TEST(Fraction, FailureMessagesArePinned)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    EXPECT_EQ(thrownMessage<FatalError>([&] { Fraction(1, kMin); }),
              "stellar fatal: Fraction 1/-9223372036854775808 has no "
              "canonical int64 form (denominator overflow)");
    EXPECT_EQ(thrownMessage<FatalError>([&] { Fraction(kMin, -1); }),
              "stellar fatal: Fraction -9223372036854775808/-1 has no "
              "canonical int64 form (numerator overflow)");
    EXPECT_EQ(thrownMessage<PanicError>([] { Fraction(-4, 6).toInteger(); }),
              "stellar panic: Fraction -2/3 is not an integer");
    EXPECT_EQ(thrownMessage<FatalError>([&] { -Fraction(kMin, 1); }),
              "stellar fatal: Fraction negation of -9223372036854775808 "
              "overflows int64");
    EXPECT_EQ(thrownMessage<FatalError>([] { Fraction(1, 0); }),
              "stellar fatal: Fraction denominator must be nonzero");
}

TEST(Fraction, Gcd64SaturatesAtTheInt64Edge)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    // gcd(-2^63, -2^63) is 2^63, unrepresentable: saturates to INT64_MAX
    // rather than wrapping negative.
    EXPECT_EQ(gcd64(kMin, kMin), kMax);
    EXPECT_EQ(gcd64(kMin, 0), kMax);
    // Mixed-magnitude calls stay exact.
    EXPECT_EQ(gcd64(kMin, 2), 2);
    EXPECT_EQ(gcd64(kMin, 3), 1);
    EXPECT_EQ(gcd64(-12, 18), 6);
    EXPECT_EQ(gcd64(0, -7), 7);
}

TEST(Saturate, AddClampsAtBothBoundaries)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

    bool saturated = false;
    EXPECT_EQ(util::satAdd(kMax, 1, &saturated), kMax);
    EXPECT_TRUE(saturated);

    saturated = false;
    EXPECT_EQ(util::satAdd(kMin, -1, &saturated), kMin);
    EXPECT_TRUE(saturated);

    // Exact boundary arithmetic does not clamp.
    saturated = false;
    EXPECT_EQ(util::satAdd(kMin, kMax, &saturated), -1);
    EXPECT_EQ(util::satAdd(kMax, kMin, &saturated), -1);
    EXPECT_EQ(util::satAdd(kMin + 1, -1, &saturated), kMin);
    EXPECT_FALSE(saturated);
}

TEST(Saturate, MulClampsWithTheRightSign)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

    bool saturated = false;
    // -2^63 * -1 is the classic wrap-to-itself case: must clamp to max.
    EXPECT_EQ(util::satMul(kMin, -1, &saturated), kMax);
    EXPECT_TRUE(saturated);

    saturated = false;
    EXPECT_EQ(util::satMul(kMin, 2, &saturated), kMin);
    EXPECT_TRUE(saturated);

    saturated = false;
    EXPECT_EQ(util::satMul(kMax, kMax, &saturated), kMax);
    EXPECT_TRUE(saturated);

    saturated = false;
    EXPECT_EQ(util::satMul(kMax, -2, &saturated), kMin);
    EXPECT_TRUE(saturated);

    // In-range products pass through untouched.
    saturated = false;
    EXPECT_EQ(util::satMul(kMin, 1, &saturated), kMin);
    EXPECT_EQ(util::satMul(kMin / 2, 2, &saturated), kMin);
    EXPECT_EQ(util::satMul(-3, 7, &saturated), -21);
    EXPECT_FALSE(saturated);
}

TEST(IntMatrix, IdentityAndMultiply)
{
    IntMatrix id = IntMatrix::identity(3);
    IntMatrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}};
    EXPECT_EQ(id * m, m);
    EXPECT_EQ(m * id, m);
}

TEST(IntMatrix, DeterminantKnownValues)
{
    EXPECT_EQ((IntMatrix{{2}}).determinant(), 2);
    EXPECT_EQ((IntMatrix{{1, 2}, {3, 4}}).determinant(), -2);
    EXPECT_EQ((IntMatrix{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}).determinant(), 0);
    EXPECT_EQ((IntMatrix{{1, 0, -1}, {0, 1, -1}, {1, 1, 1}}).determinant(),
              3);
}

TEST(IntMatrix, VectorMultiply)
{
    IntMatrix m{{1, 0, 0}, {0, 1, 0}, {1, 1, 1}};
    IntVec v = m * IntVec{2, 3, 4};
    EXPECT_EQ(v, (IntVec{2, 3, 9}));
}

TEST(IntMatrix, TransposeInvolution)
{
    IntMatrix m{{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(m.transpose().transpose(), m);
    EXPECT_EQ(m.transpose().rows(), 3);
}

/** Property: A * A^-1 == I for a sweep of invertible matrices. */
class MatrixInverseProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MatrixInverseProperty, InverseRoundTrip)
{
    Rng rng(std::uint64_t(GetParam()) * 7919 + 13);
    for (int trial = 0; trial < 20; trial++) {
        int n = int(rng.nextRange(1, 4));
        IntMatrix m(n, n);
        do {
            for (int r = 0; r < n; r++)
                for (int c = 0; c < n; c++)
                    m.at(r, c) = rng.nextRange(-3, 3);
        } while (!m.isInvertible());
        FracMatrix inv = m.inverse();
        // Check M * M^-1 == I exactly.
        FracMatrix mf(n, n);
        for (int r = 0; r < n; r++)
            for (int c = 0; c < n; c++)
                mf.at(r, c) = Fraction(m.at(r, c));
        FracMatrix prod = mf * inv;
        for (int r = 0; r < n; r++)
            for (int c = 0; c < n; c++)
                EXPECT_EQ(prod.at(r, c), Fraction(r == c ? 1 : 0))
                        << "n=" << n << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixInverseProperty,
                         ::testing::Range(0, 8));

/** A row-major n x n matrix, n <= 4. */
using Cells = std::array<std::int64_t, 16>;

/**
 * Oracle: the textbook cofactor expansion of the submatrix of `a` (n x n)
 * on the rows in `row_mask` and the columns in `col_mask`, along its first
 * row, expanding every entry. It shares nothing with the library code:
 * minors are masks, never copies.
 */
std::int64_t
oracleDeterminant(const Cells &a, int n, unsigned row_mask, unsigned col_mask)
{
    if (row_mask == 0)
        return 1;
    const int r = std::countr_zero(row_mask);
    std::int64_t det = 0;
    std::int64_t sign = 1;
    for (int c = 0; c < n; c++) {
        if (!(col_mask & (1u << c)))
            continue;
        det += sign * a[std::size_t(r * n + c)] *
               oracleDeterminant(a, n, row_mask & ~(1u << r),
                                 col_mask & ~(1u << c));
        sign = -sign;
    }
    return det;
}

std::int64_t
oracleMinor(const Cells &a, int n, int skip_row, int skip_col)
{
    const unsigned all = (1u << n) - 1;
    return oracleDeterminant(a, n, all & ~(1u << skip_row),
                             all & ~(1u << skip_col));
}

IntMatrix
fromCells(const Cells &a, int n)
{
    IntMatrix m(n, n);
    for (int r = 0; r < n; r++)
        for (int c = 0; c < n; c++)
            m.at(r, c) = a[std::size_t(r * n + c)];
    return m;
}

/** Determinant, every minor, and the inverse of `a` against the oracle. */
::testing::AssertionResult
matchesCofactorOracle(const Cells &a, int n)
{
    const IntMatrix m = fromCells(a, n);
    auto fail = [&](const std::string &what) {
        return ::testing::AssertionFailure() << what << " of " << m.toString();
    };
    const std::int64_t det = oracleDeterminant(a, n, (1u << n) - 1,
                                               (1u << n) - 1);
    if (m.determinant() != det ||
        rowMajorDeterminant(a.data(), n) != det)
        return fail("determinant");
    Cells minors{};
    for (int r = 0; r < n; r++) {
        for (int c = 0; c < n; c++) {
            minors[std::size_t(r * n + c)] = oracleMinor(a, n, r, c);
            if (rowMajorMinor(a.data(), n, r, c) !=
                minors[std::size_t(r * n + c)])
                return fail("minor (" + std::to_string(r) + ", " +
                            std::to_string(c) + ")");
        }
    }
    std::optional<FracMatrix> inv = m.tryInverse();
    if (inv.has_value() != (det != 0))
        return fail("invertibility");
    if (!inv)
        return ::testing::AssertionSuccess();
    // inverse[r][c] = (-1)^(r+c) minor(c, r) / det (Fraction keeps it in
    // lowest terms).
    for (int r = 0; r < n; r++) {
        for (int c = 0; c < n; c++) {
            const Fraction &got = inv->at(r, c);
            std::int64_t cof = ((r + c) % 2 == 0 ? 1 : -1) *
                               minors[std::size_t(c * n + r)];
            if (got.num() * det != cof * got.den())
                return fail("inverse entry (" + std::to_string(r) + ", " +
                            std::to_string(c) + ")");
        }
    }
    return ::testing::AssertionSuccess();
}

/** Every n x n matrix with entries in [lo, hi], against the oracle. */
void
sweepAllMatrices(int n, std::int64_t lo, std::int64_t hi)
{
    const std::int64_t range = hi - lo + 1;
    std::int64_t total = 1;
    for (int i = 0; i < n * n; i++)
        total *= range;
    Cells a{};
    for (std::int64_t code = 0; code < total; code++) {
        std::int64_t rest = code;
        for (int i = 0; i < n * n; i++) {
            a[std::size_t(i)] = lo + rest % range;
            rest /= range;
        }
        ASSERT_TRUE(matchesCofactorOracle(a, n));
    }
}

TEST(IntMatrix, ClosedFormMatchesOracleOnEvery3x3InMinus2To2)
{
    sweepAllMatrices(3, -2, 2);
}

TEST(IntMatrix, ClosedFormMatchesOracleOnSeededRandom4x4)
{
    Rng rng(20240917);
    int singular = 0;
    for (int trial = 0; trial < 20000; trial++) {
        Cells a{};
        for (int i = 0; i < 16; i++)
            a[std::size_t(i)] = rng.nextRange(-9, 9);
        // Zero some entries: row-0 zeros take the skip path, and zero
        // rows or columns make the matrix singular.
        const int zeros = int(rng.nextRange(0, 8));
        for (int z = 0; z < zeros; z++)
            a[std::size_t(rng.nextRange(0, 15))] = 0;
        singular += oracleDeterminant(a, 4, 15, 15) == 0;
        ASSERT_TRUE(matchesCofactorOracle(a, 4)) << "trial " << trial;
    }
    EXPECT_GT(singular, 0);
}

TEST(IntMatrix, SingularMatrixHasNoInverse)
{
    const std::vector<std::pair<int, Cells>> cases = {
            {1, {0}},
            {2, {1, 2, 2, 4}},
            {2, {0, 0, 3, 5}},
            {3, {1, 2, 3, 4, 5, 6, 7, 8, 9}},
            {3, {0, 0, 0, 1, 2, 3, 4, 5, 6}},
            {3, {2, -1, 2, 4, -2, 4, 1, 7, 1}},
            {4, {1, 2, 3, 4, 2, 4, 6, 8, 0, 1, 0, 1, 5, 0, 5, 0}},
            {4, {0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0}},
            {4, {1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 9, -9, 0, 0, -9, 9}},
    };
    for (const auto &[n, a] : cases) {
        ASSERT_TRUE(matchesCofactorOracle(a, n));
        const IntMatrix m = fromCells(a, n);
        EXPECT_EQ(m.determinant(), 0) << m.toString();
        EXPECT_FALSE(m.isInvertible());
        EXPECT_FALSE(m.tryInverse().has_value());
        EXPECT_EQ(thrownMessage<FatalError>([&] { m.inverse(); }),
                  "stellar fatal: matrix is singular; no inverse exists");
    }
}

// A zero in row 0 skips its minor, which here would overflow int64
// (M * M for M = 2^32). Only the UBSan build sees the overflow if the
// skip is lost; the values hold either way.
TEST(IntMatrix, ZeroRowZeroEntriesSkipTheirMinors)
{
    constexpr std::int64_t M = std::int64_t(1) << 32;
    IntMatrix three{{0, 1, 0}, {0, M, M}, {1, M, M}};
    EXPECT_EQ(three.determinant(), M);
    // Minor (0, 2) of this one holds the product M * M.
    IntMatrix four{{0, 0, 0, 1}, {1, 0, 0, M}, {M, 0, 1, 0}, {0, 1, 0, 0}};
    EXPECT_EQ(four.determinant(), 1);
}

TEST(IntMatrix, ClosedFormEdgeCases)
{
    // 0x0: the empty product, determinant 1, an empty inverse.
    IntMatrix empty(0, 0);
    EXPECT_EQ(empty.determinant(), 1);
    ASSERT_TRUE(empty.tryInverse().has_value());
    EXPECT_EQ(empty.tryInverse()->rows(), 0);

    // 1x1: the minor is the 0x0 determinant.
    Cells one{-3};
    EXPECT_EQ(rowMajorMinor(one.data(), 1, 0, 0), 1);
    FracMatrix inv = IntMatrix{{-3}}.inverse();
    EXPECT_EQ(inv.at(0, 0), Fraction(-1, 3));
    for (std::int64_t v = -4; v <= 4; v++)
        ASSERT_TRUE(matchesCofactorOracle(Cells{v}, 1));

    // 2x2: every matrix with entries in [-3, 3].
    sweepAllMatrices(2, -3, 3);
    IntMatrix two{{2, 1}, {7, 4}};
    EXPECT_EQ(two.inverse(), *two.tryInverse());
    EXPECT_EQ(two.inverse().at(1, 0), Fraction(-7));

    // Non-square matrices are a user error, not a crash.
    EXPECT_THROW(IntMatrix(2, 3).determinant(), FatalError);
    EXPECT_THROW(IntMatrix(2, 3).tryInverse(), FatalError);
}

TEST(VecOps, SubAddL1Zero)
{
    IntVec a{3, -1, 2}, b{1, 1, 2};
    EXPECT_EQ(vecSub(a, b), (IntVec{2, -2, 0}));
    EXPECT_EQ(vecAdd(a, b), (IntVec{4, 0, 4}));
    EXPECT_EQ(vecL1(a), 6);
    EXPECT_FALSE(vecIsZero(a));
    EXPECT_TRUE(vecIsZero(IntVec{0, 0}));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; i++) {
        auto v = rng.nextBounded(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        auto v = rng.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; i++) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ZipfIsSkewed)
{
    Rng rng(5);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 20000; i++)
        counts[rng.nextZipf(100, 1.2)]++;
    // The head of a Zipf distribution dominates the tail.
    EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Rng, PermutationIsBijective)
{
    Rng rng(9);
    auto perm = rng.permutation(257);
    std::vector<bool> seen(257, false);
    for (auto p : perm) {
        EXPECT_LT(p, 257u);
        EXPECT_FALSE(seen[p]);
        seen[p] = true;
    }
}

TEST(SampleStats, BasicMoments)
{
    SampleStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.stddev(), 1.1180, 1e-3);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0);
    h.add(0.0);
    h.add(9.99);
    h.add(10.0);
    h.add(5.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Strings, JoinIndentSanitize)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(indent("x\ny", 2), "  x\n  y");
    EXPECT_EQ(sanitizeIdentifier("foo-bar.baz"), "foo_bar_baz");
    EXPECT_EQ(sanitizeIdentifier("1abc"), "id_1abc");
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(padLeft("7", 3), "  7");
    EXPECT_EQ(padRight("7", 3), "7  ");
    EXPECT_TRUE(startsWith("stellar", "ste"));
    EXPECT_FALSE(startsWith("st", "ste"));
    EXPECT_EQ(toLower("AbC"), "abc");
}

} // namespace
} // namespace stellar
