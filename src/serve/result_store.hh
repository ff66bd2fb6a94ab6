/**
 * @file
 * The content-addressed result store (DESIGN.md §13.4). One CSV per
 * distinct request identity, named `res.<key>.csv` where the key is
 * the 64-bit hash of the request's canonical manifest (schema, op,
 * budget, profile/config fingerprints). The manifest is embedded in
 * the file and re-validated on every lookup by readCsvValidated — a
 * hash collision, torn write, or schema drift reads as a miss (with
 * its cache.reject_reason counted), never as a wrong answer.
 *
 * The worker that computed a result publishes it before it reports
 * home, through the `serve.publish` fault site: an injected torn
 * write leaves a file lookup() rejects, so the worst case is a
 * recompute. Degraded results (quarantined matrix rows) are NEVER
 * stored — a cache must not replay a degradation that a healthy rerun
 * would not reproduce.
 */

#ifndef XPS_SERVE_RESULT_STORE_HH
#define XPS_SERVE_RESULT_STORE_HH

#include <string>

#include "util/csv.hh"

namespace xps
{
namespace serve
{

class ResultStore
{
  public:
    explicit ResultStore(std::string dir);

    /** True (and fills `doc`) when a valid entry for this identity
     *  exists. Counts serve.cache_hits / serve.cache_misses. */
    bool lookup(const CsvManifest &identity, CsvDoc &doc);

    /** Atomically publish a result rendered by renderCsv() against
     *  `identity` (fault site serve.publish). */
    void publish(const CsvManifest &identity, const std::string &csv);

  private:
    std::string entryPath(const CsvManifest &identity) const;

    std::string dir_;
};

} // namespace serve
} // namespace xps

#endif // XPS_SERVE_RESULT_STORE_HH
