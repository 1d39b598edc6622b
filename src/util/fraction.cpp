#include "util/fraction.hpp"

#include <limits>

#include "util/logging.hpp"

namespace stellar
{

namespace
{

/** |v| as an unsigned value; well-defined for INT64_MIN (2^63). */
std::uint64_t
magnitude(std::int64_t v)
{
    return v < 0 ? std::uint64_t(0) - std::uint64_t(v) : std::uint64_t(v);
}

std::uint64_t
ugcd(std::uint64_t a, std::uint64_t b)
{
    while (b != 0) {
        std::uint64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

constexpr std::uint64_t kInt64MaxU =
        std::uint64_t(std::numeric_limits<std::int64_t>::max());

} // namespace

std::int64_t
gcd64(std::int64_t a, std::int64_t b)
{
    // Unsigned magnitudes: negating INT64_MIN in int64 arithmetic is UB.
    std::uint64_t g = ugcd(magnitude(a), magnitude(b));
    // gcd(INT64_MIN, 0) and gcd(INT64_MIN, INT64_MIN) are 2^63, which
    // has no int64 representation; saturate rather than return a
    // negative "gcd" (the pre-UB-fix wraparound behavior).
    if (g > kInt64MaxU)
        return std::numeric_limits<std::int64_t>::max();
    return std::int64_t(g);
}

Fraction::Fraction(std::int64_t num, std::int64_t den) : num_(num), den_(den)
{
    require(den != 0, "Fraction denominator must be nonzero");
    normalize();
}

void
Fraction::normalize()
{
    // All arithmetic on unsigned magnitudes: the textbook
    // negate-then-reduce sequence is UB when num_ or den_ is INT64_MIN.
    const bool negative = (num_ < 0) != (den_ < 0);
    std::uint64_t un = magnitude(num_);
    std::uint64_t ud = magnitude(den_);
    if (un == 0) {
        num_ = 0;
        den_ = 1;
        return;
    }
    std::uint64_t g = ugcd(un, ud);
    un /= g;
    ud /= g;
    // The canonical form needs a positive int64 denominator and an
    // int64 numerator; reduction can leave a magnitude only INT64_MIN
    // itself could carry (e.g. 1/INT64_MIN, INT64_MIN/-1).
    // The messages are built only on failure: normalize runs on every
    // construction.
    if (ud > kInt64MaxU)
        fatal("Fraction " + std::to_string(num_) + "/" +
              std::to_string(den_) +
              " has no canonical int64 form (denominator overflow)");
    if (un > kInt64MaxU + (negative ? 1 : 0))
        fatal("Fraction " + std::to_string(num_) + "/" +
              std::to_string(den_) +
              " has no canonical int64 form (numerator overflow)");
    den_ = std::int64_t(ud);
    if (!negative)
        num_ = std::int64_t(un);
    else if (un == kInt64MaxU + 1)
        num_ = std::numeric_limits<std::int64_t>::min();
    else
        num_ = -std::int64_t(un);
}

std::int64_t
Fraction::toInteger() const
{
    if (den_ != 1)
        panic("Fraction " + toString() + " is not an integer");
    return num_;
}

Fraction
Fraction::operator-() const
{
    if (num_ == std::numeric_limits<std::int64_t>::min())
        fatal("Fraction negation of " + toString() + " overflows int64");
    Fraction r;
    r.num_ = -num_;
    r.den_ = den_;
    return r;
}

Fraction
Fraction::operator+(const Fraction &other) const
{
    return Fraction(num_ * other.den_ + other.num_ * den_, den_ * other.den_);
}

Fraction
Fraction::operator-(const Fraction &other) const
{
    return Fraction(num_ * other.den_ - other.num_ * den_, den_ * other.den_);
}

Fraction
Fraction::operator*(const Fraction &other) const
{
    return Fraction(num_ * other.num_, den_ * other.den_);
}

Fraction
Fraction::operator/(const Fraction &other) const
{
    require(other.num_ != 0, "Fraction division by zero");
    return Fraction(num_ * other.den_, den_ * other.num_);
}

Fraction &
Fraction::operator+=(const Fraction &other)
{
    *this = *this + other;
    return *this;
}

Fraction &
Fraction::operator-=(const Fraction &other)
{
    *this = *this - other;
    return *this;
}

Fraction &
Fraction::operator*=(const Fraction &other)
{
    *this = *this * other;
    return *this;
}

Fraction &
Fraction::operator/=(const Fraction &other)
{
    *this = *this / other;
    return *this;
}

std::strong_ordering
Fraction::operator<=>(const Fraction &other) const
{
    // Denominators are positive, so cross-multiplication preserves order.
    std::int64_t lhs = num_ * other.den_;
    std::int64_t rhs = other.num_ * den_;
    return lhs <=> rhs;
}

std::string
Fraction::toString() const
{
    if (den_ == 1)
        return std::to_string(num_);
    return std::to_string(num_) + "/" + std::to_string(den_);
}

} // namespace stellar
