/**
 * @file
 * One hardened JSON-subset parser for every untrusted text surface.
 *
 * Two independent parsers used to guard JSON inputs (the calibration
 * corpus reader and, with the serve daemon, its request surface); a
 * hardening fix to one silently missed the other. This module is the
 * single shared implementation: a recursive-descent parser over the
 * JSON subset our serializers emit (objects, arrays, strings with the
 * short escape set, strtod numbers, true/false/null), with a byte
 * offset in every diagnostic, a nesting-depth cap, and an optional
 * input-size cap so hostile requests fail loudly and cheaply instead
 * of exhausting the stack or the heap.
 *
 * Consumers: model/calibration.cpp (corpus records), serve/protocol
 * (daemon requests/responses), serve/snapshot (design-memo warm-start
 * files). All of them validate *semantics* (required keys, value
 * ranges) on the parsed Value tree; this layer owns syntax only.
 */

#ifndef STELLAR_UTIL_JSON_HPP
#define STELLAR_UTIL_JSON_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stellar::util::json
{

/** One parsed JSON value; a small ordered document tree. */
struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;

    /** Object members in input order (duplicate keys are rejected at
     *  parse time, so lookup by key is unambiguous). */
    std::vector<std::pair<std::string, Value>> object;

    /** Byte offset of the value's first character in the parsed text,
     *  for semantic diagnostics ("unknown field at byte N"). */
    std::size_t offset = 0;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** The member named `key`, or nullptr (objects only). */
    const Value *find(const std::string &key) const;
};

/** Parser limits; the defaults suit every current consumer. */
struct ParseLimits
{
    /** Maximum input size in bytes (0 = unlimited). */
    std::size_t maxBytes = 0;

    /** Maximum container nesting depth; a hostile "[[[[..." must die
     *  by diagnostic, not by stack overflow. */
    std::size_t maxDepth = 64;
};

/**
 * Parse one JSON document (trailing content is an error). Every
 * failure raises util FatalError with the message prefixed by `what`
 * and carrying the byte offset of the problem. Numbers must be finite
 * (no nan/inf tokens); strings support the \" \\ \/ \b \f \n \r \t
 * escapes (anything else, including \u, is rejected).
 */
Value parse(const std::string &text, const std::string &what = "json",
            const ParseLimits &limits = {});

/** Serialize a value compactly (no whitespace), escaping strings with
 *  the same short escape set parse() accepts. Numbers print as %.17g,
 *  so every finite double round-trips exactly. */
std::string serialize(const Value &value);

/** The %.17g spelling, written by std::to_chars (general format,
 *  precision 17): a fixed width that round-trips every finite double. */
std::string serializeDouble(double value);

/** Quote + escape a string for embedding in hand-built JSON text.
 *  Bytes outside the escape set that are not printable ASCII are
 *  emitted as-is (the parser reads them back verbatim). */
std::string quote(const std::string &text);

/**
 * Require that `value.number` is an integral value representable in
 * int64; raises FatalError otherwise, naming the field and the byte
 * offset. The field is `what`, followed by `'key'` when `key` is
 * given; the message is built only on failure, so the guard every
 * integer-typed request field goes through allocates nothing when the
 * field is well formed.
 */
std::int64_t toInt64(const Value &value, std::string_view what,
                     std::string_view key = {});

} // namespace stellar::util::json

#endif // STELLAR_UTIL_JSON_HPP
