#include "serve/journal.hh"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "obs/json.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace xps
{
namespace serve
{

namespace fs = std::filesystem;

Journal::Journal(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("journal: cannot create %s: %s", dir_.c_str(),
              ec.message().c_str());
}

std::string
Journal::path(const std::string &key) const
{
    return dir_ + "/job." + key + ".json";
}

void
Journal::record(const JournalRecord &rec)
{
    std::ostringstream out;
    out << "{\"key\":\"" << obs::json::escape(rec.key)
        << "\",\"seq\":" << rec.seq << ",\"request\":\""
        << obs::json::escape(rec.request) << "\"}\n";
    atomicWriteFile(path(rec.key), out.str(), "serve.journal");
}

void
Journal::remove(const std::string &key)
{
    std::error_code ec;
    fs::remove(path(key), ec);
}

std::vector<JournalRecord>
Journal::recover()
{
    Metrics &metrics = Metrics::global();
    std::vector<JournalRecord> live;
    std::error_code ec;
    // Records are written once, so no later write of the same record
    // sweeps its dead writer's temp: sweep them all here.
    sweepStaleTemps(dir_, "");
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("job.", 0) != 0 ||
            name.find(".tmp.") != std::string::npos ||
            name.find(".json") == std::string::npos)
            continue;
        std::string content;
        obs::json::Value v;
        const obs::json::Value *seq = nullptr;
        JournalRecord rec;
        if (!readFile(entry.path().string(), content) ||
            !obs::json::parse(content, v) || !v.isObject() ||
            (rec.key = v.stringOr("key", "")).empty() ||
            !(seq = v.find("seq")) || !seq->wholeNumber(rec.seq)) {
            warn("journal: removing torn record %s", name.c_str());
            fs::remove(entry.path(), ec);
            metrics.counter("serve.journal_torn").add();
            continue;
        }
        rec.request = v.stringOr("request", "");
        seq_ = std::max(seq_, rec.seq + 1);
        live.push_back(std::move(rec));
    }
    std::sort(live.begin(), live.end(),
              [](const JournalRecord &a, const JournalRecord &b) {
                  return a.seq < b.seq;
              });
    return live;
}

} // namespace serve
} // namespace xps
