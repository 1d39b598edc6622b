// The shared util::json parser guards every untrusted text surface
// (calibration corpus files, serve requests, memo snapshots), so its
// hardening properties are pinned here: byte-offset diagnostics,
// depth/size caps, non-finite rejection, and exact double round-trip.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace json = stellar::util::json;
using stellar::FatalError;

namespace
{

TEST(JsonTest, ParsesScalars)
{
    EXPECT_TRUE(json::parse("null").isNull());
    EXPECT_TRUE(json::parse("true").boolean);
    EXPECT_FALSE(json::parse("false").boolean);
    EXPECT_DOUBLE_EQ(json::parse("-12.5e2").number, -1250.0);
    EXPECT_EQ(json::parse("\"hi\\tthere\"").string, "hi\tthere");
}

TEST(JsonTest, ParsesNestedDocumentInOrder)
{
    json::Value root = json::parse(
            "{ \"b\": [1, 2, {\"x\": null}], \"a\": \"s\" }");
    ASSERT_TRUE(root.isObject());
    ASSERT_EQ(root.object.size(), 2u);
    // Members keep input order; find() still works by key.
    EXPECT_EQ(root.object[0].first, "b");
    EXPECT_EQ(root.object[1].first, "a");
    const json::Value *b = root.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_DOUBLE_EQ(b->array[1].number, 2.0);
    EXPECT_TRUE(b->array[2].find("x")->isNull());
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonTest, OffsetsPointAtValueStart)
{
    json::Value root = json::parse("  {\"k\": 42}");
    EXPECT_EQ(root.offset, 2u);
    EXPECT_EQ(root.find("k")->offset, 8u);
}

TEST(JsonTest, ErrorsCarryPrefixAndByteOffset)
{
    try {
        json::parse("{\"a\": }", "serve request");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("serve request:"),
                  std::string::npos)
                << e.what();
        EXPECT_NE(std::string(e.what()).find("at byte 6"),
                  std::string::npos)
                << e.what();
    }
}

TEST(JsonTest, RejectsMalformedDocuments)
{
    EXPECT_THROW(json::parse(""), FatalError);
    EXPECT_THROW(json::parse("{"), FatalError);
    EXPECT_THROW(json::parse("{\"a\": 1,}"), FatalError);
    EXPECT_THROW(json::parse("[1 2]"), FatalError);
    EXPECT_THROW(json::parse("\"unterminated"), FatalError);
    EXPECT_THROW(json::parse("\"bad \\u0041 escape\""), FatalError);
    EXPECT_THROW(json::parse("{} trailing"), FatalError);
    EXPECT_THROW(json::parse("tru"), FatalError);
}

TEST(JsonTest, RejectsNonFiniteAndNonJsonNumbers)
{
    // strtod accepts all of these; JSON (and our consumers) must not.
    EXPECT_THROW(json::parse("inf"), FatalError);
    EXPECT_THROW(json::parse("nan"), FatalError);
    EXPECT_THROW(json::parse("+1"), FatalError);
    EXPECT_THROW(json::parse("1e999"), FatalError);
    EXPECT_THROW(json::parse("0x10"), FatalError);
}

TEST(JsonTest, RejectsDuplicateKeys)
{
    EXPECT_THROW(json::parse("{\"a\": 1, \"a\": 2}"), FatalError);
}

TEST(JsonTest, DepthCapStopsHostileNesting)
{
    std::string deep(100000, '[');
    EXPECT_THROW(json::parse(deep), FatalError);

    json::ParseLimits limits;
    limits.maxDepth = 3;
    EXPECT_NO_THROW(json::parse("[[[1]]]", "json", limits));
    EXPECT_THROW(json::parse("[[[[1]]]]", "json", limits), FatalError);
}

TEST(JsonTest, SizeCapRejectsOversizedInput)
{
    json::ParseLimits limits;
    limits.maxBytes = 8;
    EXPECT_NO_THROW(json::parse("[1,2,3]", "json", limits));
    EXPECT_THROW(json::parse("[1,2,3,4]", "json", limits), FatalError);
}

TEST(JsonTest, SerializeRoundTripsExactly)
{
    const std::string text =
            "{\"name\":\"a\\\"b\\\\c\\n\",\"xs\":[1,-0.5,"
            "2.2250738585072014e-308],\"flag\":true,\"none\":null}";
    json::Value parsed = json::parse(text);
    EXPECT_EQ(json::serialize(parsed), text);
    // And the serialization parses back to an equal tree.
    json::Value again = json::parse(json::serialize(parsed));
    EXPECT_EQ(json::serialize(again), text);
}

TEST(JsonTest, DoubleFormatterRoundTripsExtremes)
{
    for (double v : {0.1, 1.0 / 3.0, 1e308, 5e-324, -0.0, 123456789.123}) {
        json::Value parsed = json::parse(json::serializeDouble(v));
        EXPECT_EQ(parsed.number, v);
    }
}

/** The C library's %.17g spelling, the reference serializeDouble keeps. */
std::string
printf17g(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

TEST(JsonTest, DoubleFormatterSpellsExactlyLikePrintf17g)
{
    std::vector<double> edges = {
            0.0, -0.0, std::numeric_limits<double>::denorm_min(),
            -std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX,
            -DBL_MAX, DBL_EPSILON, 0.1, 1.0 / 3.0,
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::quiet_NaN()};
    for (int e = -323; e <= 308; e++)
        edges.push_back(std::pow(10.0, e)); // powers of ten
    for (std::int64_t i = -1000; i <= 1000; i++)
        edges.push_back(double(i)); // integers
    for (int e = 0; e <= 63; e++) {
        const double power = std::ldexp(1.0, e);
        edges.insert(edges.end(), {power, power - 1, power + 1, -power});
    }
    for (double v : edges)
        ASSERT_EQ(json::serializeDouble(v), printf17g(v)) << printf17g(v);

    // Random bit patterns cover every exponent and subnormals; random
    // values in [0, 1) and short decimals cover the common scores.
    stellar::Rng rng(17);
    for (int i = 0; i < 1000000; i++) {
        double v = 0.0;
        switch (i % 3) {
          case 0:
            v = std::bit_cast<double>(rng.next());
            break;
          case 1:
            v = rng.nextDouble();
            break;
          default:
            v = double(rng.nextRange(-999999, 999999)) / 1000.0;
            break;
        }
        if (!std::isfinite(v))
            continue;
        ASSERT_EQ(json::serializeDouble(v), printf17g(v))
                << "draw " << i << ": " << printf17g(v);
    }
}

TEST(JsonTest, QuoteEscapesControlCharacters)
{
    EXPECT_EQ(json::quote("a\"b\\c\td\n"), "\"a\\\"b\\\\c\\td\\n\"");
    EXPECT_EQ(json::parse(json::quote("x\by\fz\r")).string, "x\by\fz\r");
}

TEST(JsonTest, ToInt64GuardsIntegerFields)
{
    EXPECT_EQ(json::toInt64(json::parse("42"), "f"), 42);
    EXPECT_EQ(json::toInt64(json::parse("-7"), "f"), -7);
    EXPECT_THROW(json::toInt64(json::parse("1.5"), "f"), FatalError);
    EXPECT_THROW(json::toInt64(json::parse("1e300"), "f"), FatalError);
    EXPECT_THROW(json::toInt64(json::parse("\"3\""), "f"), FatalError);
    // int64 boundary: -2^63 is exactly representable and is INT64_MIN.
    EXPECT_EQ(json::toInt64(json::parse("-9223372036854775808"), "f"),
              std::numeric_limits<std::int64_t>::min());
    // INT64_MAX is NOT exactly representable; it (and 2^63 itself)
    // strtod-round to exactly 2^63, which must be rejected rather than
    // converted — the conversion would be out of range (UB).
    EXPECT_THROW(json::toInt64(json::parse("9223372036854775807"), "f"),
                 FatalError);
    EXPECT_THROW(json::toInt64(json::parse("9223372036854775808"), "f"),
                 FatalError);
    // -2^63 - 1 rounds back UP to -2^63 (double spacing is 1024 at
    // this magnitude), so it converts to INT64_MIN; the next double
    // below, -2^63 - 1024, must throw.
    EXPECT_EQ(json::toInt64(json::parse("-9223372036854775809"), "f"),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_THROW(json::toInt64(json::parse("-9223372036854777856"), "f"),
                 FatalError);
    // The largest double below 2^63 (2^63 - 1024) still converts.
    EXPECT_EQ(json::toInt64(json::parse("9223372036854774784"), "f"),
              9223372036854774784LL);
    // The message is built only on failure; it names the field as
    // `what` followed by the quoted key, and the byte offset.
    try {
        json::toInt64(json::parse(" 1.5"), "serve request: ", "width");
        ADD_FAILURE() << "1.5 accepted as an integer";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(), "stellar fatal: serve request: 'width' "
                                 "must be an integer (at byte 1)");
    }
    try {
        json::toInt64(json::parse("true"), "calibration JSON: 'version'");
        ADD_FAILURE() << "true accepted as an integer";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(), "stellar fatal: calibration JSON: "
                                 "'version' must be a number (at byte 0)");
    }
}

} // namespace
