#include "scenario/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sibyl::scenario
{

namespace
{

const char *
kindName(JsonValue::Kind k)
{
    switch (k) {
      case JsonValue::Kind::Null:
        return "null";
      case JsonValue::Kind::Bool:
        return "bool";
      case JsonValue::Kind::Number:
        return "number";
      case JsonValue::Kind::String:
        return "string";
      case JsonValue::Kind::Array:
        return "array";
      case JsonValue::Kind::Object:
        return "object";
    }
    return "?";
}

[[noreturn]] void
typeError(const char *want, JsonValue::Kind got)
{
    throw std::invalid_argument(std::string("json: expected ") + want +
                                ", found " + kindName(got));
}

} // namespace

JsonValue
JsonValue::of(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::of(double d)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = d;
    // Only treat the double as integral when the int64 round-trip is
    // exact; range-check *before* casting (an out-of-range
    // double->int conversion is UB).
    if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
        const auto i = static_cast<std::int64_t>(d);
        if (static_cast<double>(i) == d) {
            v.integral_ = true;
            v.negative_ = i < 0;
            v.mag_ = v.negative_
                ? ~static_cast<std::uint64_t>(i) + 1
                : static_cast<std::uint64_t>(i);
        }
    }
    return v;
}

JsonValue
JsonValue::of(std::int64_t i)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = static_cast<double>(i);
    v.integral_ = true;
    v.negative_ = i < 0;
    v.mag_ = v.negative_ ? ~static_cast<std::uint64_t>(i) + 1
                         : static_cast<std::uint64_t>(i);
    return v;
}

JsonValue
JsonValue::of(std::uint64_t u)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = static_cast<double>(u);
    v.integral_ = true;
    v.mag_ = u;
    return v;
}

JsonValue
JsonValue::of(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        typeError("bool", kind_);
    return bool_;
}

double
JsonValue::asDouble() const
{
    if (kind_ != Kind::Number)
        typeError("number", kind_);
    return num_;
}

std::int64_t
JsonValue::asInt() const
{
    if (kind_ != Kind::Number)
        typeError("number", kind_);
    if (!integral_)
        throw std::invalid_argument("json: expected integer, found " +
                                    std::to_string(num_));
    if (!negative_ && mag_ > 9223372036854775807ULL)
        throw std::invalid_argument(
            "json: integer " + std::to_string(mag_) +
            " does not fit a signed 64-bit value");
    return negative_ ? -static_cast<std::int64_t>(mag_ - 1) - 1
                     : static_cast<std::int64_t>(mag_);
}

std::uint64_t
JsonValue::asUint() const
{
    if (kind_ != Kind::Number)
        typeError("number", kind_);
    if (!integral_)
        throw std::invalid_argument("json: expected integer, found " +
                                    std::to_string(num_));
    if (negative_ && mag_ != 0)
        throw std::invalid_argument(
            "json: expected non-negative integer, found -" +
            std::to_string(mag_));
    return mag_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        typeError("string", kind_);
    return str_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (kind_ != Kind::Array)
        typeError("array", kind_);
    return arr_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::asObject() const
{
    if (kind_ != Kind::Object)
        typeError("object", kind_);
    return obj_;
}

void
JsonValue::push(JsonValue v)
{
    if (kind_ != Kind::Array)
        typeError("array", kind_);
    arr_.push_back(std::move(v));
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    if (kind_ != Kind::Object)
        typeError("object", kind_);
    for (const auto &[k, unused] : obj_)
        if (k == key)
            throw std::invalid_argument("json: duplicate key \"" + key +
                                        "\"");
    obj_.emplace_back(key, std::move(v));
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : obj_)
        if (k == key)
            return &v;
    return nullptr;
}

std::uint32_t
jsonUint32(const JsonValue &v, const std::string &key)
{
    const std::uint64_t u = v.asUint();
    if (u > 0xFFFFFFFFULL)
        throw std::invalid_argument("json: \"" + key + "\" = " +
                                    std::to_string(u) +
                                    " exceeds 4294967295");
    return static_cast<std::uint32_t>(u);
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------
// Parser: recursive descent over the UTF-8 byte stream. Positions are
// tracked as line:column for diagnostics.
// ---------------------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue parseDocument()
    {
        JsonValue v = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing content after document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &what) const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); i++) {
            if (text_[i] == '\n') {
                line++;
                col = 1;
            } else {
                col++;
            }
        }
        throw std::invalid_argument("json parse error at " +
                                    std::to_string(line) + ":" +
                                    std::to_string(col) + ": " + what);
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            pos_++;
    }

    char peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        pos_++;
    }

    bool consumeLiteral(const char *lit)
    {
        const std::size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out += e;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned int code = 0;
                for (int i = 0; i < 4; i++) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a') + 10;
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A') + 10;
                    else
                        fail("bad hex digit in \\u escape");
                }
                // Scenario files are ASCII-oriented; encode the code
                // point as UTF-8 without surrogate-pair handling.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail("unknown escape sequence");
            }
        }
    }

    JsonValue parseNumber()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            pos_++;
        bool integral = true;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                pos_++;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                pos_++;
            } else {
                break;
            }
        }
        const std::string lit = text_.substr(start, pos_ - start);
        if (lit.empty() || lit == "-")
            fail("malformed number");
        errno = 0;
        char *end = nullptr;
        if (integral && lit[0] == '-') {
            const long long i = std::strtoll(lit.c_str(), &end, 10);
            if (errno != 0 || end != lit.c_str() + lit.size())
                fail("malformed integer \"" + lit + "\"");
            return JsonValue::of(static_cast<std::int64_t>(i));
        }
        if (integral) {
            // Parse unsigned so the full uint64 range (64-bit seeds)
            // survives.
            const unsigned long long u =
                std::strtoull(lit.c_str(), &end, 10);
            if (errno != 0 || end != lit.c_str() + lit.size())
                fail("malformed integer \"" + lit + "\"");
            return JsonValue::of(static_cast<std::uint64_t>(u));
        }
        const double d = std::strtod(lit.c_str(), &end);
        // ERANGE covers both overflow and subnormal underflow;
        // subnormals are perfectly representable (jsonNumber() prints
        // them), so only overflow to +-inf is an error.
        if (end != lit.c_str() + lit.size() || d != d ||
            d > 1.7976931348623157e308 || d < -1.7976931348623157e308)
            fail("malformed or out-of-range number \"" + lit + "\"");
        return JsonValue::of(d);
    }

    JsonValue parseValue()
    {
        switch (peek()) {
          case '{': {
            pos_++;
            JsonValue obj = JsonValue::object();
            if (peek() == '}') {
                pos_++;
                return obj;
            }
            while (true) {
                skipSpace();
                std::string key = parseString();
                expect(':');
                obj.set(key, parseValue());
                char c = peek();
                pos_++;
                if (c == '}')
                    return obj;
                if (c != ',')
                    fail("expected ',' or '}' in object");
            }
          }
          case '[': {
            pos_++;
            JsonValue arr = JsonValue::array();
            if (peek() == ']') {
                pos_++;
                return arr;
            }
            while (true) {
                arr.push(parseValue());
                char c = peek();
                pos_++;
                if (c == ']')
                    return arr;
                if (c != ',')
                    fail("expected ',' or ']' in array");
            }
          }
          case '"':
            return JsonValue::of(parseString());
          case 't':
            if (consumeLiteral("true"))
                return JsonValue::of(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return JsonValue::of(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return JsonValue::makeNull();
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
jsonParse(const std::string &text)
{
    Parser p(text);
    return p.parseDocument();
}

std::string
readTextFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::invalid_argument("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
writeTextFileAtomic(const std::string &path, const std::string &text)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(text.data(),
                  static_cast<std::streamsize>(text.size()));
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace sibyl::scenario
