/**
 * @file
 * Minimal self-contained JSON document model for the scenario layer.
 *
 * The repository takes no third-party dependencies, so the scenario
 * files, campaign manifests and results documents are read through
 * this small recursive-descent parser. It supports the full JSON
 * value grammar with two deliberate restrictions that match the
 * scenario format: numbers are stored as `double` plus an exact
 * 64-bit magnitude and sign when the literal was integral (seeds and
 * request counts survive untouched), and object keys keep *insertion
 * order*, so diagnostics and the regression gate walk documents in
 * file order.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace sibyl::scenario
{

/** One JSON value (tree node). */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;
    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue of(bool b);
    static JsonValue of(double d);
    static JsonValue of(std::int64_t i);
    static JsonValue of(std::uint64_t u);
    static JsonValue of(std::string s);
    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isBool() const { return kind_ == Kind::Bool; }

    /** Accessors throw std::invalid_argument on a kind mismatch, with
     *  the offending kind in the message — scenario-file type errors
     *  surface as readable diagnostics, not UB. */
    bool asBool() const;
    double asDouble() const;
    std::int64_t asInt() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::vector<std::pair<std::string, JsonValue>> &asObject() const;

    /** True when the number literal was integral (no '.', 'e', '-'
     *  fraction) and round-trips exactly — the full uint64/int64
     *  range is preserved (seeds are 64-bit). */
    bool isIntegral() const { return kind_ == Kind::Number && integral_; }

    /** Array append. */
    void push(JsonValue v);

    /** Object append (keeps insertion order; duplicate keys rejected). */
    void set(const std::string &key, JsonValue v);

    /** Object lookup; nullptr when absent (or not an object). */
    const JsonValue *find(const std::string &key) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;

    /** Integral numbers are stored as magnitude + sign so the whole
     *  uint64 range survives parse -> emit -> parse (a double cannot
     *  hold it, and int64 loses the top half). */
    std::uint64_t mag_ = 0;
    bool negative_ = false;
    bool integral_ = false;

    std::string str_;
    std::vector<JsonValue> arr_;
    std::vector<std::pair<std::string, JsonValue>> obj_;
};

/** @p v.asUint() for a 32-bit field: a larger value throws
 *  std::invalid_argument naming @p key instead of wrapping, so an
 *  input "device": 4294967297 never reads as device 1. */
std::uint32_t jsonUint32(const JsonValue &v, const std::string &key);

/** Escape @p s as a quoted JSON string literal — the one escaping
 *  rule of every JSON document the library writes (results files and
 *  campaign merges). */
std::string jsonQuote(const std::string &s);

/** Format @p v with %.17g (the byte-determinism contract: equal
 *  doubles always print identically). */
std::string jsonNumber(double v);

/**
 * Parse @p text as one JSON document. Throws std::invalid_argument
 * with a line:column position on malformed input; trailing non-space
 * content after the document is an error.
 */
JsonValue jsonParse(const std::string &text);

/** Slurp @p path; throws std::invalid_argument ("cannot open ...")
 *  when unreadable — the one file-reading idiom shared by scenario
 *  files, campaign manifests, and the regression-gate inputs. */
std::string readTextFile(const std::string &path);

/**
 * Crash-safe file write: @p text goes to "@p path.tmp" first and is
 * atomically renamed into place, so an interrupted process never
 * leaves a truncated or half-written file at @p path — readers see
 * either the old content or the complete new content. The one
 * file-writing idiom shared by results/baseline JSON emission and the
 * campaign checkpoint journal. Returns false on I/O failure (the
 * temporary is cleaned up).
 */
bool writeTextFileAtomic(const std::string &path,
                         const std::string &text);

} // namespace sibyl::scenario
