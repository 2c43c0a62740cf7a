/**
 * @file
 * Minimal dependency-free JSON document model: an ordered-object
 * Value type with a writer and a recursive-descent parser.
 *
 * Built for the machine-readable bench reports (sim/bench_report.hh):
 * object members preserve insertion order so emitted documents are
 * deterministic and diffable, integers survive as 64-bit exactly, and
 * doubles are written with the shortest representation that parses
 * back to the identical bit pattern — a report that round-trips
 * through dump()/parse() compares equal value-for-value.
 */

#ifndef TSTREAM_UTIL_JSON_HH
#define TSTREAM_UTIL_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tstream::json
{

class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object,
    };

    Value() = default;
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(int v) : kind_(Kind::Int), int_(v) {}
    Value(unsigned v) : kind_(Kind::Int), int_(v) {}
    Value(std::int64_t v) : kind_(Kind::Int), int_(v) {}
    Value(std::uint64_t v)
        : kind_(Kind::Int), int_(static_cast<std::int64_t>(v))
    {
    }
    Value(double v) : kind_(Kind::Double), dbl_(v) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Value(std::string_view s) : kind_(Kind::String), str_(s) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}

    static Value
    array()
    {
        Value v;
        v.kind_ = Kind::Array;
        return v;
    }

    static Value
    object()
    {
        Value v;
        v.kind_ = Kind::Object;
        return v;
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isInt() const { return kind_ == Kind::Int; }
    bool isDouble() const { return kind_ == Kind::Double; }
    bool isNumber() const { return isInt() || isDouble(); }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return kind_ == Kind::Bool && bool_; }

    std::int64_t
    asInt() const
    {
        if (kind_ == Kind::Int)
            return int_;
        // A double outside int64 (or NaN) would make the cast UB.
        if (kind_ == Kind::Double && dbl_ >= -0x1p63 && dbl_ < 0x1p63)
            return static_cast<std::int64_t>(dbl_);
        return 0;
    }

    std::uint64_t
    asUint() const
    {
        return static_cast<std::uint64_t>(asInt());
    }

    double
    asDouble() const
    {
        if (kind_ == Kind::Double)
            return dbl_;
        if (kind_ == Kind::Int)
            return static_cast<double>(int_);
        return 0.0;
    }

    const std::string &asString() const { return str_; }

    /** Array elements (empty unless isArray()). */
    const std::vector<Value> &items() const { return items_; }

    /** Append to an array (converts a Null value to an array). */
    void
    push(Value v)
    {
        kind_ = Kind::Array;
        items_.push_back(std::move(v));
    }

    std::size_t
    size() const
    {
        return kind_ == Kind::Object ? members_.size() : items_.size();
    }

    /** Ordered object members (empty unless isObject()). */
    const std::vector<std::pair<std::string, Value>> &
    members() const
    {
        return members_;
    }

    /**
     * Insert-or-fetch an object member (converts a Null value to an
     * object); insertion order is preserved on output.
     */
    Value &operator[](std::string_view key);

    /** Member lookup; nullptr when absent or not an object. */
    const Value *find(std::string_view key) const;

    /** Serialize; indent 0 = compact, otherwise pretty with @p indent
     *  spaces per level. */
    std::string dump(int indent = 2) const;

    /**
     * Parse @p text into @p out. On failure returns false and sets
     * @p err to a message with the byte offset. Trailing
     * non-whitespace after the document is an error.
     */
    static bool parse(std::string_view text, Value &out,
                      std::string &err);

    bool operator==(const Value &rhs) const;
    bool operator!=(const Value &rhs) const { return !(*this == rhs); }

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double dbl_ = 0.0;
    std::string str_;
    std::vector<Value> items_;
    std::vector<std::pair<std::string, Value>> members_;
};

/** Read a whole file and parse it. */
bool parseFile(const std::string &path, Value &out, std::string &err);

/** Write @p v to @p path (pretty, trailing newline), atomically:
 *  a temporary renamed into place. */
bool writeFile(const Value &v, const std::string &path,
               std::string &err);

} // namespace tstream::json

#endif // TSTREAM_UTIL_JSON_HH
