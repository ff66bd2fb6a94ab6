#include "serve/result_store.hh"

#include <filesystem>

#include "serve/protocol.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace xps
{
namespace serve
{

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("result store: cannot create %s: %s", dir_.c_str(),
              ec.message().c_str());
}

std::string
ResultStore::entryPath(const CsvManifest &identity) const
{
    return dir_ + "/res." + identityKey(identity) + ".csv";
}

bool
ResultStore::lookup(const CsvManifest &identity, CsvDoc &doc)
{
    CsvReject reason = CsvReject::None;
    const bool hit =
        readCsvValidated(entryPath(identity), doc, identity, reason);
    Metrics::global()
        .counter(hit ? "serve.cache_hits" : "serve.cache_misses")
        .add();
    return hit;
}

void
ResultStore::publish(const CsvManifest &identity, const std::string &csv)
{
    atomicWriteFile(entryPath(identity), csv, "serve.publish");
    Metrics::global().counter("serve.cache_publishes").add();
}

} // namespace serve
} // namespace xps
