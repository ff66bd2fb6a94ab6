#include "util/csv.hh"

#include <cstdlib>
#include <sstream>

#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace xps
{

namespace
{

constexpr const char *kManifestMagic = "# xps-cache-manifest v1";
constexpr const char *kManifestEnd = "# end-manifest";
constexpr const char *kFooterPrefix = "# end rows=";

void
checkCell(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") != std::string::npos)
        fatal("CSV cell '%s' needs quoting, which is unsupported",
              cell.c_str());
}

std::vector<std::string>
splitLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream in(line);
    while (std::getline(in, cell, ','))
        cells.push_back(cell);
    if (!line.empty() && line.back() == ',')
        cells.emplace_back();
    return cells;
}

struct ParsedCsv
{
    CsvDoc doc;
    CsvManifest manifest;
    bool sawManifest = false;
    bool manifestClosed = false;
    bool sawFooter = false;
    bool newlineTerminated = false;
    uint64_t footerRows = 0;
};

enum class ParseStatus { Ok, Empty, Malformed };

/**
 * One parser for every entry point, over bytes already read; `source`
 * names them in errors. In tolerant mode any structural problem
 * yields Malformed instead of fatal() so cache readers can fall back
 * to recomputation.
 */
ParseStatus
parseCsv(const std::string &content, const std::string &source,
         bool tolerant, ParsedCsv &out)
{
    auto malformed = [&](const char *why) {
        if (!tolerant)
            fatal("readCsv(%s): %s", source.c_str(), why);
        return ParseStatus::Malformed;
    };
    // Writers always newline-terminate; a missing final newline means
    // the last line is torn mid-write, which validation must reject.
    out.newlineTerminated = !content.empty() && content.back() == '\n';
    std::istringstream in(content);
    std::string line;
    bool first_line = true;
    bool have_header = false;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (first_line && line == kManifestMagic) {
            out.sawManifest = true;
            first_line = false;
            continue;
        }
        first_line = false;
        if (out.sawManifest && !out.manifestClosed) {
            if (line == kManifestEnd) {
                out.manifestClosed = true;
                continue;
            }
            if (line.size() < 2 || line[0] != '#' || line[1] != ' ')
                return malformed("bad manifest line");
            const size_t eq = line.find('=', 2);
            if (eq == std::string::npos)
                return malformed("bad manifest line");
            out.manifest.entries.emplace_back(
                line.substr(2, eq - 2), line.substr(eq + 1));
            continue;
        }
        if (line.rfind(kFooterPrefix, 0) == 0) {
            if (out.sawFooter)
                return malformed("duplicate footer");
            char *end = nullptr;
            const std::string count = line.substr(
                std::string(kFooterPrefix).size());
            out.footerRows = std::strtoull(count.c_str(), &end, 10);
            if (end == count.c_str() || *end != '\0')
                return malformed("bad footer");
            out.sawFooter = true;
            continue;
        }
        if (line[0] == '#')
            continue; // other comments are ignored
        if (out.sawFooter)
            return malformed("data after footer");
        auto cells = splitLine(line);
        if (!have_header) {
            out.doc.header = std::move(cells);
            have_header = true;
        } else {
            if (cells.size() != out.doc.header.size())
                return malformed("ragged row");
            out.doc.rows.push_back(std::move(cells));
        }
    }
    if (!have_header)
        return tolerant ? ParseStatus::Malformed : ParseStatus::Empty;
    if (out.sawManifest && !out.manifestClosed)
        return malformed("unterminated manifest");
    return ParseStatus::Ok;
}

} // namespace

size_t
CsvDoc::column(const std::string &name) const
{
    for (size_t i = 0; i < header.size(); ++i) {
        if (header[i] == name)
            return i;
    }
    fatal("CsvDoc: no column named '%s'", name.c_str());
}

void
CsvManifest::set(const std::string &key, const std::string &value)
{
    if (key.empty() || key.find_first_of("=\n") != std::string::npos ||
        value.find('\n') != std::string::npos) {
        fatal("CsvManifest: bad entry '%s'='%s'", key.c_str(),
              value.c_str());
    }
    for (auto &entry : entries) {
        if (entry.first == key) {
            entry.second = value;
            return;
        }
    }
    entries.emplace_back(key, value);
}

void
CsvManifest::set(const std::string &key, uint64_t value)
{
    set(key, std::to_string(value));
}

const std::string *
CsvManifest::find(const std::string &key) const
{
    for (const auto &entry : entries) {
        if (entry.first == key)
            return &entry.second;
    }
    return nullptr;
}

std::string
renderCsv(const CsvDoc &doc, const CsvManifest *manifest)
{
    std::ostringstream out;
    if (manifest) {
        out << kManifestMagic << '\n';
        for (const auto &[key, value] : manifest->entries)
            out << "# " << key << '=' << value << '\n';
        out << kManifestEnd << '\n';
    }
    auto emit = [&](const std::vector<std::string> &cells) {
        for (size_t i = 0; i < cells.size(); ++i) {
            checkCell(cells[i]);
            out << (i ? "," : "") << cells[i];
        }
        out << '\n';
    };
    emit(doc.header);
    for (const auto &row : doc.rows) {
        if (row.size() != doc.header.size())
            fatal("writeCsv: row width %zu != header width %zu",
                  row.size(), doc.header.size());
        emit(row);
    }
    if (manifest)
        out << kFooterPrefix << doc.rows.size() << '\n';
    return out.str();
}

void
writeCsv(const std::string &path, const CsvDoc &doc)
{
    atomicWriteFile(path, renderCsv(doc, nullptr));
}

void
writeCsv(const std::string &path, const CsvDoc &doc,
         const CsvManifest &manifest)
{
    atomicWriteFile(path, renderCsv(doc, &manifest));
}

bool
readCsv(const std::string &path, CsvDoc &doc)
{
    std::string content;
    ParsedCsv parsed;
    if (!readFile(path, content) ||
        parseCsv(content, path, false, parsed) != ParseStatus::Ok)
        return false;
    doc = std::move(parsed.doc);
    return true;
}

const char *
csvRejectName(CsvReject reason)
{
    switch (reason) {
      case CsvReject::None: return "none";
      case CsvReject::Missing: return "missing";
      case CsvReject::Malformed: return "malformed";
      case CsvReject::NoManifest: return "no_manifest";
      case CsvReject::VersionMismatch: return "version_mismatch";
      case CsvReject::FingerprintMismatch:
        return "fingerprint_mismatch";
      case CsvReject::KnobMismatch: return "knob_mismatch";
      case CsvReject::Truncated: return "truncated";
    }
    return "unknown";
}

namespace
{

/** Keys whose mismatch means "same schema, different experiment
 *  identity" rather than a tuning-knob drift. */
bool
fingerprintKey(const std::string &key)
{
    return key.find("fingerprint") != std::string::npos ||
           key.find("profile") != std::string::npos ||
           key.find("config") != std::string::npos;
}

/**
 * Classify how two unequal manifests differ. Priority: a "schema"
 * difference (including a key only one side has) is a version
 * mismatch; any differing fingerprint-ish key is a fingerprint
 * mismatch; everything else is a knob mismatch.
 */
CsvReject
classifyManifestDiff(const CsvManifest &got, const CsvManifest &want)
{
    const std::string *gv = got.find("schema");
    const std::string *wv = want.find("schema");
    if (!gv != !wv || (gv && wv && *gv != *wv))
        return CsvReject::VersionMismatch;
    bool fingerprint = false;
    auto scan = [&](const CsvManifest &a, const CsvManifest &b) {
        for (const auto &[key, value] : a.entries) {
            const std::string *other = b.find(key);
            if (other && *other == value)
                continue;
            if (fingerprintKey(key))
                fingerprint = true;
        }
    };
    scan(got, want);
    scan(want, got);
    return fingerprint ? CsvReject::FingerprintMismatch
                       : CsvReject::KnobMismatch;
}

void
countReject(CsvReject reason)
{
    if (reason == CsvReject::None)
        return;
    Metrics::global()
        .counter(std::string("cache.reject_reason.") +
                 csvRejectName(reason))
        .add();
}

} // namespace

bool
parseCsvValidated(const std::string &content, const std::string &source,
                  CsvDoc &doc, const CsvManifest &expected,
                  CsvReject &reason)
{
    reason = CsvReject::None;
    ParsedCsv parsed;
    if (parseCsv(content, source, true, parsed) != ParseStatus::Ok) {
        reason = CsvReject::Malformed;
        countReject(reason);
        warn("cache %s is malformed; recomputing", source.c_str());
        return false;
    }
    if (!parsed.sawManifest) {
        reason = CsvReject::NoManifest;
        countReject(reason);
        warn("cache %s has no manifest; recomputing", source.c_str());
        return false;
    }
    if (!(parsed.manifest == expected)) {
        reason = classifyManifestDiff(parsed.manifest, expected);
        countReject(reason);
        warn("cache %s is stale (%s); recomputing", source.c_str(),
             csvRejectName(reason));
        return false;
    }
    if (!parsed.sawFooter || !parsed.newlineTerminated ||
        parsed.footerRows != parsed.doc.rows.size()) {
        reason = CsvReject::Truncated;
        countReject(reason);
        warn("cache %s is torn (missing or wrong footer); recomputing",
             source.c_str());
        return false;
    }
    doc = std::move(parsed.doc);
    return true;
}

bool
readCsvValidated(const std::string &path, CsvDoc &doc,
                 const CsvManifest &expected, CsvReject &reason)
{
    std::string content;
    if (!readFile(path, content)) {
        reason = CsvReject::Missing;
        countReject(reason);
        return false;
    }
    return parseCsvValidated(content, path, doc, expected, reason);
}

bool
readCsvValidated(const std::string &path, CsvDoc &doc,
                 const CsvManifest &expected)
{
    CsvReject reason = CsvReject::None;
    return readCsvValidated(path, doc, expected, reason);
}

} // namespace xps
