/**
 * @file
 * Minimal CSV read/write used to cache exploration results between
 * bench binaries (see DESIGN.md §5.5). Cells never contain commas or
 * quotes in our use, so no quoting dialect is implemented; writing a
 * cell with a comma, quote or newline is a fatal error rather than a
 * silent corruption.
 *
 * Writes are crash-safe (temp + fsync + rename via atomicWriteFile),
 * and cache files carry a manifest header (schema version, budget
 * knobs, profile fingerprints — whatever the producer deems
 * identity-relevant) plus an integrity footer. readCsvValidated()
 * accepts a file only when its manifest matches the expectation
 * exactly and the footer proves the file is complete; a torn, stale
 * or garbage cache is rejected (returns false) so the caller
 * recomputes instead of half-parsing (DESIGN.md §7).
 */

#ifndef XPS_UTIL_CSV_HH
#define XPS_UTIL_CSV_HH

#include <cstdint>
#include <string>
#include <vector>

namespace xps
{

/** One CSV document: a header row plus data rows. */
struct CsvDoc
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    /** Column index for a header name; fatal if absent. */
    size_t column(const std::string &name) const;
};

/**
 * Ordered key=value identity of a cache file. Two manifests match
 * only when they hold the same keys with the same values in the same
 * order — any difference marks the cache stale.
 */
struct CsvManifest
{
    std::vector<std::pair<std::string, std::string>> entries;

    /** Append or overwrite a key (keys and values must be single-line
     *  and must not contain '='; fatal otherwise). */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, uint64_t value);

    /** Value of a key, or nullptr when absent. */
    const std::string *find(const std::string &key) const;

    bool operator==(const CsvManifest &other) const
    {
        return entries == other.entries;
    }
};

/** Atomically write a document (no manifest: ad-hoc outputs). */
void writeCsv(const std::string &path, const CsvDoc &doc);

/** A document as the bytes writeCsv() writes; with a manifest, as a
 *  cache document (manifest header and integrity footer). */
std::string renderCsv(const CsvDoc &doc, const CsvManifest *manifest);

/** Atomically write a cache document. */
void writeCsv(const std::string &path, const CsvDoc &doc,
              const CsvManifest &manifest);

/**
 * Read a document; returns false if the file does not exist. Comment
 * lines (leading '#') are skipped, so manifest-carrying files parse
 * too. Malformed content (ragged rows) is fatal — use
 * readCsvValidated() for files an earlier crash may have torn.
 */
bool readCsv(const std::string &path, CsvDoc &doc);

/**
 * Why a validated cache read rejected its file. Ordered roughly by
 * specificity: a schema-version difference reports VersionMismatch
 * even though the manifests also differ elsewhere, and a fingerprint
 * difference wins over other knob differences. Each rejection bumps
 * the matching cache.reject_reason.<name> metrics counter, so a fleet
 * of "recomputing" warnings can be told apart in one metrics dump.
 */
enum class CsvReject
{
    None,                ///< accepted
    Missing,             ///< file absent
    Malformed,           ///< garbage, ragged rows, bad manifest lines
    NoManifest,          ///< parses but carries no identity manifest
    VersionMismatch,     ///< manifest "schema" key differs
    FingerprintMismatch, ///< a profile/config/fingerprint key differs
    KnobMismatch,        ///< some other manifest key/value differs
    Truncated,           ///< footer missing/wrong or no final newline
};

/** Stable lower-case name of a reject reason ("none", "missing",
 *  "version_mismatch", ...) for logs and metrics counters. */
const char *csvRejectName(CsvReject reason);

/**
 * Validated cache read: true only when the file exists, parses
 * cleanly, carries a manifest equal to `expected`, and ends with an
 * intact footer whose row count matches. Any deviation — missing or
 * mismatched manifest (stale knobs, different profiles), truncation,
 * garbage, ragged rows — returns false without terminating, so the
 * caller recomputes. The 4-arg overload additionally classifies the
 * rejection (see CsvReject) for callers that branch on the cause;
 * both overloads log the classified reason and count it under
 * cache.reject_reason.<name>.
 */
bool readCsvValidated(const std::string &path, CsvDoc &doc,
                      const CsvManifest &expected);
bool readCsvValidated(const std::string &path, CsvDoc &doc,
                      const CsvManifest &expected, CsvReject &reason);

/** The content form of readCsvValidated(): the same checks over bytes
 *  already in memory (a result a worker sent home). `source` names
 *  them in warnings. A file read is readFile() plus this parse. */
bool parseCsvValidated(const std::string &content,
                       const std::string &source, CsvDoc &doc,
                       const CsvManifest &expected, CsvReject &reason);

} // namespace xps

#endif // XPS_UTIL_CSV_HH
