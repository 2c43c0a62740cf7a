#include "util/json.hh"

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace tstream::json
{

Value &
Value::operator[](std::string_view key)
{
    kind_ = Kind::Object;
    for (auto &[k, v] : members_)
        if (k == key)
            return v;
    members_.emplace_back(std::string(key), Value());
    return members_.back().second;
}

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

bool
Value::operator==(const Value &rhs) const
{
    if (kind_ != rhs.kind_) {
        // Int 3 and Double 3.0 compare equal so that a document that
        // was written compactly still matches its source.
        if (isNumber() && rhs.isNumber())
            return asDouble() == rhs.asDouble();
        return false;
    }
    switch (kind_) {
      case Kind::Null: return true;
      case Kind::Bool: return bool_ == rhs.bool_;
      case Kind::Int: return int_ == rhs.int_;
      case Kind::Double: return dbl_ == rhs.dbl_;
      case Kind::String: return str_ == rhs.str_;
      case Kind::Array: return items_ == rhs.items_;
      case Kind::Object: return members_ == rhs.members_;
    }
    return false;
}

namespace
{

void
escapeString(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

/** Shortest decimal representation that parses back bit-identically. */
void
formatDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN; emit null (parsers treat it as 0).
        out += "null";
        return;
    }
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    out += buf;
    // Keep a numeric marker so the value re-parses as Double, not Int.
    if (!std::strpbrk(buf, ".eE") && std::strcmp(buf, "null") != 0)
        out += ".0";
}

} // namespace

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    const auto newline = [&](int d) {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) *
                       static_cast<std::size_t>(d),
                   ' ');
    };

    switch (kind_) {
      case Kind::Null: out += "null"; break;
      case Kind::Bool: out += bool_ ? "true" : "false"; break;
      case Kind::Int: {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(int_));
        out += buf;
        break;
      }
      case Kind::Double: formatDouble(out, dbl_); break;
      case Kind::String: escapeString(out, str_); break;
      case Kind::Array:
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += indent > 0 ? "," : ",";
            newline(depth + 1);
            items_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Kind::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ",";
            newline(depth + 1);
            escapeString(out, members_[i].first);
            out += indent > 0 ? ": " : ":";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace
{

struct Parser
{
    std::string_view text;
    std::size_t pos = 0;
    std::string err;

    bool
    fail(const std::string &msg)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, " at offset %zu", pos);
        err = msg + buf;
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("bad literal");
        pos += word.size();
        return true;
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    hex4(unsigned &out)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad \\u escape");
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                break;
            const char e = text[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned cp;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xD800 && cp < 0xDC00 &&
                    text.substr(pos, 2) == "\\u") {
                    pos += 2;
                    unsigned lo;
                    if (!hex4(lo))
                        return false;
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (lo - 0xDC00);
                }
                appendUtf8(out, cp);
                break;
              }
              default: return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        const std::size_t start = pos;
        bool isDouble = false;
        if (consume('-')) {
        }
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-')) {
            if (text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E')
                isDouble = true;
            ++pos;
        }
        const std::string tok(text.substr(start, pos - start));
        if (tok.empty() || tok == "-")
            return fail("bad number");
        char *end = nullptr;
        if (isDouble) {
            out = Value(std::strtod(tok.c_str(), &end));
        } else {
            errno = 0;
            const long long v = std::strtoll(tok.c_str(), &end, 10);
            if (errno == ERANGE)
                out = Value(std::strtod(tok.c_str(), &end));
            else
                out = Value(static_cast<std::int64_t>(v));
        }
        if (!end || *end != '\0')
            return fail("bad number");
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > 128)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            out = Value::object();
            skipWs();
            if (consume('}'))
                return true;
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                out[key] = std::move(v);
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out = Value::array();
            skipWs();
            if (consume(']'))
                return true;
            for (;;) {
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.push(std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Value(std::move(s));
            return true;
        }
        if (c == 't') {
            if (!literal("true"))
                return false;
            out = Value(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return false;
            out = Value(false);
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return false;
            out = Value();
            return true;
        }
        return parseNumber(out);
    }
};

} // namespace

bool
Value::parse(std::string_view text, Value &out, std::string &err)
{
    Parser p{text, 0, {}};
    if (!p.parseValue(out, 0)) {
        err = p.err;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        err = "trailing characters after document";
        return false;
    }
    return true;
}

bool
parseFile(const std::string &path, Value &out, std::string &err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = path + ": cannot open";
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!Value::parse(ss.str(), out, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

bool
writeFile(const Value &v, const std::string &path, std::string &err)
{
    // Write a process-unique temporary and rename it into place, so a
    // process killed mid-write leaves the previous file intact.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            err = path + ": cannot open for writing";
            return false;
        }
        out << v.dump(2) << '\n';
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            err = path + ": write failed";
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        err = path + ": cannot replace: " + std::strerror(errno);
        return false;
    }
    return true;
}

} // namespace tstream::json
