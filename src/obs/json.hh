/**
 * @file
 * Minimal JSON reader for the observability subsystem (DESIGN.md §10).
 * The tracer validates trace-event shards before merging them (a
 * worker killed mid-write must never corrupt the merged timeline),
 * and xps-report reads metrics / trace / supervisor-report files —
 * all JSON this repo itself emits. A ~300-line recursive-descent
 * parser covers that closed world; it is not a general-purpose
 * library (no \uXXXX surrogate pairs, numbers parsed as double).
 */

#ifndef XPS_OBS_JSON_HH
#define XPS_OBS_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace xps
{
namespace obs
{
namespace json
{

/** One parsed JSON value; a tagged tree. */
struct Value
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> items; ///< Array elements
    /** Object members in file order (duplicates kept as parsed). */
    std::vector<std::pair<std::string, Value>> fields;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }

    /** First member named `key`, or nullptr (also when not an
     *  object). */
    const Value *find(const std::string &key) const;

    /** Member `key` as a number; `def` when absent or not numeric. */
    double numberOr(const std::string &key, double def) const;

    /** This value as a whole number in [0, 2^53], the integers a
     *  double holds exactly; false for anything else (a string, a
     *  fraction, a negative, an overflow such as 1e30 or 1e999). */
    bool wholeNumber(uint64_t &out) const;

    /** Member `key` as a string; `def` when absent or not a string. */
    std::string stringOr(const std::string &key,
                         const std::string &def) const;
};

/**
 * Parse `text` (one complete JSON value, surrounding whitespace ok)
 * into `out`. False on any syntax error or trailing garbage — the
 * callers treat any failure as "this file is torn, skip it".
 */
bool parse(const std::string &text, Value &out);

/** Escape a string for embedding inside a JSON string literal
 *  (quotes, backslashes, control characters). */
std::string escape(const std::string &s);

} // namespace json
} // namespace obs
} // namespace xps

#endif // XPS_OBS_JSON_HH
