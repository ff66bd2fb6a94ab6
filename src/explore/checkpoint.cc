#include "explore/checkpoint.hh"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/logging.hh"

namespace xps
{

std::string
formatHexDouble(double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

bool
parseHexDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size();
}

void
writeManifestHeader(std::ostream &out, const char *magic,
                    const CsvManifest &identity)
{
    out << magic << '\n';
    for (const auto &[key, value] : identity.entries)
        out << "m " << key << '=' << value << '\n';
    out << "endm\n";
}

bool
readManifestHeader(std::istream &in, const char *magic,
                   const CsvManifest &identity)
{
    std::string line;
    if (!std::getline(in, line) || line != magic)
        return false;
    CsvManifest found;
    while (std::getline(in, line)) {
        if (line == "endm")
            return found == identity;
        if (line.rfind("m ", 0) != 0)
            return false;
        const size_t eq = line.find('=', 2);
        if (eq == std::string::npos)
            return false;
        found.entries.emplace_back(line.substr(2, eq - 2),
                                   line.substr(eq + 1));
    }
    return false; // no endm: torn inside the header
}

namespace
{

constexpr const char *kMagic = "xps-checkpoint v1";

// --- writing ---------------------------------------------------------------

/** Empty strings would vanish under tokenization; "-" stands in. */
std::string
encodeName(const std::string &name)
{
    if (name.empty())
        return "-";
    if (name.find_first_of(" \n") != std::string::npos ||
        name == "-") {
        fatal("checkpoint: unencodable name '%s'", name.c_str());
    }
    return name;
}

std::string
decodeName(const std::string &token)
{
    return token == "-" ? std::string() : token;
}

/** `config <tag>`, then the toCsvRow() cells with the name encoded. */
void
emitConfig(std::ostringstream &out, const char *tag,
           const CoreConfig &cfg)
{
    std::vector<std::string> row = cfg.toCsvRow();
    row[0] = encodeName(row[0]);
    out << "config " << tag;
    for (const std::string &cell : row)
        out << ' ' << cell;
    out << '\n';
}

void
emitMemo(std::ostringstream &out,
         const std::vector<std::pair<std::string, double>> &memo)
{
    out << "memo.count " << memo.size() << '\n';
    for (const auto &[key, value] : memo)
        out << "memo " << key << ' ' << formatHexDouble(value) << '\n';
}

void
emitAnnealerState(std::ostringstream &out, const AnnealerState &st)
{
    char buf[96];
    out << "anneal.iter " << st.iteration << '\n';
    out << "anneal.temp " << formatHexDouble(st.temp) << '\n';
    std::snprintf(buf, sizeof(buf),
                  "anneal.rng %" PRIx64 " %" PRIx64 " %" PRIx64
                  " %" PRIx64 "\n",
                  st.rng[0], st.rng[1], st.rng[2], st.rng[3]);
    out << buf;
    out << "anneal.score " << formatHexDouble(st.currentScore) << '\n';
    emitConfig(out, "current", st.current);
    emitConfig(out, "best", st.result.best);
    out << "anneal.best.score " << formatHexDouble(st.result.bestScore)
        << '\n';
    out << "anneal.evals " << st.result.evaluations << '\n';
    out << "anneal.accepted " << st.result.accepted << '\n';
    out << "trace " << st.result.improvementTrace.size();
    for (const auto &[iter, score] : st.result.improvementTrace)
        out << ' ' << iter << ' ' << formatHexDouble(score);
    out << '\n';
}

// --- parsing ---------------------------------------------------------------

/** Sequential cursor over the whitespace-tokenized payload lines. */
class LineReader
{
  public:
    explicit LineReader(std::vector<std::vector<std::string>> lines)
        : lines_(std::move(lines))
    {
    }

    bool
    atEnd() const
    {
        return pos_ >= lines_.size();
    }

    /** Payload lines not yet consumed: an upper bound on any record
     *  count the rest of the file can honour. */
    size_t
    remaining() const
    {
        return lines_.size() - pos_;
    }

    /** Next line iff its first token equals `tag` and it carries
     *  exactly `args` further tokens; nullptr otherwise. */
    const std::vector<std::string> *
    expect(const char *tag, size_t args)
    {
        const auto *line = expectVariadic(tag);
        if (!line || line->size() != args + 1)
            return nullptr;
        return line;
    }

    /** Next line iff its first token equals `tag` (any arity). */
    const std::vector<std::string> *
    expectVariadic(const char *tag)
    {
        return nextIs(tag) ? &lines_[pos_++] : nullptr;
    }

    /** Whether the next line's first token equals `tag`. */
    bool
    nextIs(const char *tag) const
    {
        return !atEnd() && !lines_[pos_].empty() &&
               lines_[pos_][0] == tag;
    }

  private:
    std::vector<std::vector<std::string>> lines_;
    size_t pos_ = 0;
};

/** One RNG word: exactly the hex digits emitAnnealerState prints. */
bool
parseHexWord(const std::string &text, uint64_t &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, 16);
    return ec == std::errc() && ptr == end;
}

/**
 * Split the file into manifest + tokenized payload lines (a blank line
 * stays, as a line no record accepts); false on a header
 * readManifestHeader rejects, data after the trailing "end" marker,
 * or a missing one (truncation).
 */
bool
splitCheckpoint(const std::string &content, const CsvManifest &identity,
                LineReader &reader)
{
    std::istringstream in(content);
    if (!readManifestHeader(in, kMagic, identity))
        return false;
    bool saw_end = false;
    std::vector<std::vector<std::string>> payload;
    std::string line;
    while (std::getline(in, line)) {
        if (saw_end)
            return false; // data after the end marker
        if (line == "end") {
            saw_end = true;
            continue;
        }
        std::vector<std::string> tokens;
        std::istringstream tok(line);
        std::string t;
        while (tok >> t)
            tokens.push_back(std::move(t));
        payload.push_back(std::move(tokens));
    }
    if (!saw_end)
        return false;
    reader = LineReader(std::move(payload));
    return true;
}

bool
parseConfig(LineReader &reader, const char *tag, CoreConfig &out)
{
    const std::vector<std::string> header = CoreConfig::csvHeader();
    const auto *line = reader.expect("config", 1 + header.size());
    if (!line || (*line)[1] != tag)
        return false;
    std::vector<std::string> row(line->begin() + 2, line->end());
    row[0] = decodeName(row[0]);
    return CoreConfig::fromCsvRow(header, row, out);
}

bool
parseMemo(LineReader &reader,
          std::vector<std::pair<std::string, double>> &out)
{
    const auto *count_line = reader.expect("memo.count", 1);
    uint64_t count;
    if (!count_line || !parseCsvNumber((*count_line)[1], count) ||
        count > reader.remaining())
        return false;
    out.clear();
    out.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        const auto *line = reader.expect("memo", 2);
        CoreConfig cfg;
        double value;
        if (!line || !CoreConfig::fromMemoKey((*line)[1], cfg) ||
            !parseHexDouble((*line)[2], value))
            return false;
        out.emplace_back((*line)[1], value);
    }
    return true;
}

void
emitSurrogate(std::ostringstream &out, const std::string &surrogate)
{
    // Optional line; the model serialization is already a single
    // space-separated token line, emitted verbatim after the tag.
    if (!surrogate.empty())
        out << "surrogate " << surrogate << '\n';
}

bool
parseSurrogate(LineReader &reader, std::string &out)
{
    const auto *line = reader.expectVariadic("surrogate");
    if (!line)
        return true; // optional: absent is fine
    if (line->size() < 2)
        return false;
    std::string joined;
    for (size_t i = 1; i < line->size(); ++i) {
        if (i > 1)
            joined += ' ';
        joined += (*line)[i];
    }
    out = std::move(joined);
    return true;
}

bool
parseAnnealerState(LineReader &reader, AnnealerState &out)
{
    AnnealerState st;
    const auto *line = reader.expect("anneal.iter", 1);
    if (!line || !parseCsvNumber((*line)[1], st.iteration))
        return false;
    line = reader.expect("anneal.temp", 1);
    if (!line || !parseHexDouble((*line)[1], st.temp))
        return false;
    line = reader.expect("anneal.rng", 4);
    if (!line)
        return false;
    for (int i = 0; i < 4; ++i) {
        if (!parseHexWord((*line)[1 + i], st.rng[i]))
            return false;
    }
    line = reader.expect("anneal.score", 1);
    if (!line || !parseHexDouble((*line)[1], st.currentScore))
        return false;
    if (!parseConfig(reader, "current", st.current) ||
        !parseConfig(reader, "best", st.result.best)) {
        return false;
    }
    line = reader.expect("anneal.best.score", 1);
    if (!line || !parseHexDouble((*line)[1], st.result.bestScore))
        return false;
    line = reader.expect("anneal.evals", 1);
    if (!line || !parseCsvNumber((*line)[1], st.result.evaluations))
        return false;
    line = reader.expect("anneal.accepted", 1);
    if (!line || !parseCsvNumber((*line)[1], st.result.accepted))
        return false;
    line = reader.expectVariadic("trace");
    if (!line || line->size() < 2)
        return false;
    uint64_t entries;
    if (!parseCsvNumber((*line)[1], entries) || entries > line->size() ||
        line->size() != 2 + 2 * entries) {
        return false;
    }
    st.result.improvementTrace.reserve(entries);
    for (uint64_t i = 0; i < entries; ++i) {
        uint64_t iter;
        double score;
        if (!parseCsvNumber((*line)[2 + 2 * i], iter) ||
            !parseHexDouble((*line)[3 + 2 * i], score)) {
            return false;
        }
        st.result.improvementTrace.emplace_back(iter, score);
    }
    out = std::move(st);
    return true;
}

} // namespace

std::string
serializeWorkloadCheckpoint(const WorkloadCheckpoint &ckpt,
                            const CsvManifest &identity)
{
    std::ostringstream out;
    writeManifestHeader(out, kMagic, identity);
    out << "round " << ckpt.round << '\n';
    out << "evals " << ckpt.evals << '\n';
    out << "adoptions " << ckpt.adoptions << '\n';
    emitAnnealerState(out, ckpt.anneal);
    emitMemo(out, ckpt.memo);
    emitSurrogate(out, ckpt.surrogate);
    out << "end\n";
    return out.str();
}

bool
parseWorkloadCheckpoint(const std::string &content,
                        const CsvManifest &identity,
                        WorkloadCheckpoint &out)
{
    LineReader reader({});
    if (!splitCheckpoint(content, identity, reader))
        return false;
    WorkloadCheckpoint ckpt;
    const auto *line = reader.expect("round", 1);
    if (!line || !parseCsvNumber((*line)[1], ckpt.round) ||
        ckpt.round < 0)
        return false;
    line = reader.expect("evals", 1);
    if (!line || !parseCsvNumber((*line)[1], ckpt.evals))
        return false;
    line = reader.expect("adoptions", 1);
    if (!line || !parseCsvNumber((*line)[1], ckpt.adoptions))
        return false;
    if (!parseAnnealerState(reader, ckpt.anneal) ||
        !parseMemo(reader, ckpt.memo) ||
        !parseSurrogate(reader, ckpt.surrogate) || !reader.atEnd()) {
        return false;
    }
    out = std::move(ckpt);
    return true;
}

std::string
serializeSuiteCheckpoint(const SuiteCheckpoint &ckpt,
                         const CsvManifest &identity)
{
    std::ostringstream out;
    writeManifestHeader(out, kMagic, identity);
    out << "round " << ckpt.round << '\n';
    out << "workloads " << ckpt.workloads.size() << '\n';
    for (const auto &w : ckpt.workloads) {
        emitConfig(out, "current", w.current);
        out << "evals " << w.evals << '\n';
        out << "adoptions " << w.adoptions << '\n';
        emitMemo(out, w.memo);
        emitSurrogate(out, w.surrogate);
        if (w.degraded)
            out << "degraded " << (w.frozen ? 1 : 0) << '\n';
    }
    out << "end\n";
    return out.str();
}

bool
parseSuiteCheckpoint(const std::string &content,
                     const CsvManifest &identity, SuiteCheckpoint &out)
{
    LineReader reader({});
    if (!splitCheckpoint(content, identity, reader))
        return false;
    SuiteCheckpoint ckpt;
    const auto *line = reader.expect("round", 1);
    if (!line || !parseCsvNumber((*line)[1], ckpt.round) ||
        ckpt.round < 0)
        return false;
    line = reader.expect("workloads", 1);
    uint64_t workloads;
    if (!line || !parseCsvNumber((*line)[1], workloads) ||
        workloads > reader.remaining())
        return false;
    ckpt.workloads.reserve(workloads);
    for (uint64_t i = 0; i < workloads; ++i) {
        SuiteWorkloadState w;
        if (!parseConfig(reader, "current", w.current))
            return false;
        const auto *l = reader.expect("evals", 1);
        if (!l || !parseCsvNumber((*l)[1], w.evals))
            return false;
        l = reader.expect("adoptions", 1);
        if (!l || !parseCsvNumber((*l)[1], w.adoptions))
            return false;
        if (!parseMemo(reader, w.memo) ||
            !parseSurrogate(reader, w.surrogate)) {
            return false;
        }
        if (reader.nextIs("degraded")) { // absent on a clean workload
            l = reader.expect("degraded", 1);
            if (!l || ((*l)[1] != "0" && (*l)[1] != "1"))
                return false;
            w.degraded = true;
            w.frozen = (*l)[1] == "1";
        }
        ckpt.workloads.push_back(std::move(w));
    }
    if (!reader.atEnd())
        return false;
    out = std::move(ckpt);
    return true;
}

} // namespace xps
