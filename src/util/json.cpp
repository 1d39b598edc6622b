#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/logging.hpp"

namespace stellar::util::json
{

namespace
{

class Parser
{
  public:
    Parser(const std::string &text, const std::string &what,
           const ParseLimits &limits)
        : text_(text), what_(what), limits_(limits)
    {
    }

    Value
    parse()
    {
        if (limits_.maxBytes != 0 && text_.size() > limits_.maxBytes)
            fail("input exceeds " + std::to_string(limits_.maxBytes) +
                 " bytes (got " + std::to_string(text_.size()) + ")");
        Value value = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after document");
        return value;
    }

  private:
    Value
    parseValue()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        Value value;
        value.offset = pos_;
        char c = text_[pos_];
        switch (c) {
          case '{': parseObject(value); break;
          case '[': parseArray(value); break;
          case '"':
            value.kind = Value::Kind::String;
            value.string = parseString();
            break;
          case 't':
          case 'f':
            value.kind = Value::Kind::Bool;
            value.boolean = parseKeyword();
            break;
          case 'n':
            expectWord("null");
            value.kind = Value::Kind::Null;
            break;
          default:
            // strtod would happily accept "inf"/"nan"/leading "+";
            // require JSON's grammar (a digit or '-') up front so
            // hostile tokens die here with a clean offset.
            if (c == '-' || (c >= '0' && c <= '9')) {
                value.kind = Value::Kind::Number;
                value.number = parseNumber();
            } else {
                fail(std::string("unexpected character '") + c + "'");
            }
        }
        return value;
    }

    void
    parseObject(Value &value)
    {
        enterContainer();
        value.kind = Value::Kind::Object;
        pos_++; // '{'
        skipWs();
        if (peek() == '}') {
            pos_++;
            depth_--;
            return;
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            for (const auto &member : value.object)
                if (member.first == key)
                    fail("duplicate key '" + key + "'");
            expect(':');
            value.object.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                pos_++;
                continue;
            }
            break;
        }
        expect('}');
        depth_--;
    }

    void
    parseArray(Value &value)
    {
        enterContainer();
        value.kind = Value::Kind::Array;
        pos_++; // '['
        skipWs();
        if (peek() == ']') {
            pos_++;
            depth_--;
            return;
        }
        while (true) {
            value.array.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                pos_++;
                continue;
            }
            break;
        }
        expect(']');
        depth_--;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              default:
                fail(std::string("unsupported escape '\\") + esc + "'");
            }
        }
    }

    double
    parseNumber()
    {
        // Scan JSON's number grammar first: strtod alone also accepts
        // hex ("0x10"), "inf"/"nan", and leading '+', none of which a
        // serializer of ours emits or a hostile client may smuggle in.
        std::size_t end = pos_;
        auto digits = [&] {
            std::size_t start = end;
            while (end < text_.size() && text_[end] >= '0' &&
                   text_[end] <= '9')
                end++;
            return end > start;
        };
        if (end < text_.size() && text_[end] == '-')
            end++;
        if (!digits())
            fail("expected a number");
        if (end < text_.size() && text_[end] == '.') {
            end++;
            if (!digits())
                fail("expected digits after decimal point");
        }
        if (end < text_.size() &&
            (text_[end] == 'e' || text_[end] == 'E')) {
            end++;
            if (end < text_.size() &&
                (text_[end] == '+' || text_[end] == '-'))
                end++;
            if (!digits())
                fail("expected digits in exponent");
        }
        std::string token = text_.substr(pos_, end - pos_);
        double value = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(value))
            fail("number is not finite");
        pos_ = end;
        return value;
    }

    bool
    parseKeyword()
    {
        if (text_[pos_] == 't') {
            expectWord("true");
            return true;
        }
        expectWord("false");
        return false;
    }

    void
    expectWord(const char *word)
    {
        for (const char *p = word; *p != '\0'; p++) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("expected '") + word + "'");
            pos_++;
        }
    }

    void
    enterContainer()
    {
        if (++depth_ > limits_.maxDepth)
            fail("nesting exceeds depth " + std::to_string(limits_.maxDepth));
    }

    char
    peek()
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            pos_++;
    }

    void
    expect(char c)
    {
        skipWs();
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        pos_++;
    }

    [[noreturn]] void
    fail(const std::string &what)
    {
        throw FatalError(what_ + ": " + what + " at byte " +
                         std::to_string(pos_));
    }

    const std::string &text_;
    const std::string &what_;
    const ParseLimits &limits_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

void
serializeInto(const Value &value, std::string &out)
{
    switch (value.kind) {
      case Value::Kind::Null:
        out += "null";
        break;
      case Value::Kind::Bool:
        out += value.boolean ? "true" : "false";
        break;
      case Value::Kind::Number:
        out += serializeDouble(value.number);
        break;
      case Value::Kind::String:
        out += quote(value.string);
        break;
      case Value::Kind::Array: {
        out += '[';
        bool first = true;
        for (const auto &item : value.array) {
            if (!first)
                out += ',';
            first = false;
            serializeInto(item, out);
        }
        out += ']';
        break;
      }
      case Value::Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &member : value.object) {
            if (!first)
                out += ',';
            first = false;
            out += quote(member.first);
            out += ':';
            serializeInto(member.second, out);
        }
        out += '}';
        break;
      }
    }
}

} // namespace

const Value *
Value::find(const std::string &key) const
{
    for (const auto &member : object)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

Value
parse(const std::string &text, const std::string &what,
      const ParseLimits &limits)
{
    return Parser(text, what, limits).parse();
}

std::string
serialize(const Value &value)
{
    std::string out;
    serializeInto(value, out);
    return out;
}

std::string
serializeDouble(double value)
{
    char buffer[32];
    char *end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                              std::chars_format::general, 17)
                        .ptr;
    return std::string(buffer, end);
}

std::string
quote(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out += '"';
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    out += '"';
    return out;
}

std::int64_t
toInt64(const Value &value, std::string_view what, std::string_view key)
{
    // 2^63 is exactly representable as a double; INT64_MAX is not, and
    // inputs like "9223372036854775807" strtod-round up to exactly 2^63.
    // The upper bound must therefore be exclusive on 2^63 itself, or the
    // float-to-int conversion below is out of range (undefined behavior).
    // -2^63 is exact and equals INT64_MIN, so the lower bound stays
    // inclusive.
    constexpr double kLimit = 9223372036854775808.0; // 2^63
    const double d = value.number;
    const bool number = value.isNumber();
    if (number && d == std::floor(d) && d >= -kLimit && d < kLimit)
        return std::int64_t(d);
    // Only a failing field pays for its message.
    std::string message(what);
    if (!key.empty())
        message.append("'").append(key).append("'");
    message += number ? " must be an integer" : " must be a number";
    fatal(message + " (at byte " + std::to_string(value.offset) + ")");
}

} // namespace stellar::util::json
