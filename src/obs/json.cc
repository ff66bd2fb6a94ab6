#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace xps
{
namespace obs
{
namespace json
{

namespace
{

/** Recursive-descent state over the input text. */
struct Parser
{
    const char *cur;
    const char *end;
    int depth = 0;
    static constexpr int kMaxDepth = 64;

    void
    skipWs()
    {
        while (cur < end &&
               (*cur == ' ' || *cur == '\t' || *cur == '\n' ||
                *cur == '\r'))
            ++cur;
    }

    bool
    literal(const char *word)
    {
        const char *p = cur;
        for (; *word; ++word, ++p) {
            if (p >= end || *p != *word)
                return false;
        }
        cur = p;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (cur >= end || *cur != '"')
            return false;
        ++cur;
        out.clear();
        while (cur < end) {
            const char c = *cur++;
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control char: torn or invalid
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (cur >= end)
                return false;
            const char esc = *cur++;
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                // Decode the code unit to one byte when it fits;
                // anything wider degrades to '?' (our own emitters
                // never produce it).
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    if (cur >= end ||
                        !std::isxdigit(
                            static_cast<unsigned char>(*cur)))
                        return false;
                    const char h = *cur++;
                    code = code * 16 +
                           static_cast<unsigned>(
                               h <= '9' ? h - '0'
                                        : (h | 0x20) - 'a' + 10);
                }
                out.push_back(code < 0x80
                                  ? static_cast<char>(code)
                                  : '?');
                break;
            }
            default:
                return false;
            }
        }
        return false; // unterminated
    }

    bool
    parseNumber(Value &out)
    {
        const char *start = cur;
        if (cur < end && *cur == '-')
            ++cur;
        while (cur < end &&
               (std::isdigit(static_cast<unsigned char>(*cur)) ||
                *cur == '.' || *cur == 'e' || *cur == 'E' ||
                *cur == '+' || *cur == '-'))
            ++cur;
        if (cur == start)
            return false;
        char *parsed_end = nullptr;
        const std::string text(start, cur);
        out.type = Value::Type::Number;
        out.number = std::strtod(text.c_str(), &parsed_end);
        return parsed_end && *parsed_end == '\0';
    }

    bool
    parseValue(Value &out)
    {
        if (++depth > kMaxDepth)
            return false;
        skipWs();
        if (cur >= end)
            return false;
        bool ok = false;
        switch (*cur) {
        case '{': {
            ++cur;
            out.type = Value::Type::Object;
            skipWs();
            if (cur < end && *cur == '}') {
                ++cur;
                ok = true;
                break;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    break;
                skipWs();
                if (cur >= end || *cur != ':')
                    break;
                ++cur;
                Value member;
                if (!parseValue(member))
                    break;
                out.fields.emplace_back(std::move(key),
                                        std::move(member));
                skipWs();
                if (cur < end && *cur == ',') {
                    ++cur;
                    continue;
                }
                if (cur < end && *cur == '}') {
                    ++cur;
                    ok = true;
                }
                break;
            }
            break;
        }
        case '[': {
            ++cur;
            out.type = Value::Type::Array;
            skipWs();
            if (cur < end && *cur == ']') {
                ++cur;
                ok = true;
                break;
            }
            while (true) {
                Value item;
                if (!parseValue(item))
                    break;
                out.items.push_back(std::move(item));
                skipWs();
                if (cur < end && *cur == ',') {
                    ++cur;
                    continue;
                }
                if (cur < end && *cur == ']') {
                    ++cur;
                    ok = true;
                }
                break;
            }
            break;
        }
        case '"':
            out.type = Value::Type::String;
            ok = parseString(out.str);
            break;
        case 't':
            out.type = Value::Type::Bool;
            out.boolean = true;
            ok = literal("true");
            break;
        case 'f':
            out.type = Value::Type::Bool;
            out.boolean = false;
            ok = literal("false");
            break;
        case 'n':
            out.type = Value::Type::Null;
            ok = literal("null");
            break;
        default:
            ok = parseNumber(out);
            break;
        }
        --depth;
        return ok;
    }
};

} // namespace

const Value *
Value::find(const std::string &key) const
{
    for (const auto &[name, value] : fields) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

double
Value::numberOr(const std::string &key, double def) const
{
    const Value *v = find(key);
    return (v && v->type == Type::Number) ? v->number : def;
}

bool
Value::wholeNumber(uint64_t &out) const
{
    constexpr double kMaxExact = 9007199254740992.0; // 2^53
    if (type != Type::Number || !(number >= 0 && number <= kMaxExact) ||
        number != std::floor(number))
        return false;
    out = static_cast<uint64_t>(number);
    return true;
}

std::string
Value::stringOr(const std::string &key, const std::string &def) const
{
    const Value *v = find(key);
    return (v && v->type == Type::String) ? v->str : def;
}

bool
parse(const std::string &text, Value &out)
{
    Parser p{text.data(), text.data() + text.size()};
    Value parsed;
    if (!p.parseValue(parsed))
        return false;
    p.skipWs();
    if (p.cur != p.end)
        return false; // trailing garbage: treat as torn
    out = std::move(parsed);
    return true;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace json
} // namespace obs
} // namespace xps
