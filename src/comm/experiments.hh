/**
 * @file
 * Shared experiment context for the bench harnesses: the customized
 * configurations of the SPEC2000int suite (Table 4) and the
 * cross-configuration IPT matrix (Table 5, the exploration's final
 * phase) are computed once and cached as CSV under $XPS_RESULTS_DIR
 * (default ./results), so that every bench binary can be run
 * independently, in any order, and the whole suite costs one
 * exploration (DESIGN.md §5.5).
 *
 * The cache files carry identity manifests (DESIGN.md §7): a cache
 * written under different budget knobs or different workload
 * profiles, or torn by a crash, is rejected and recomputed — never
 * silently reused. Long recomputations are themselves crash-safe:
 * the exploration checkpoints per workload (XPS_CHECKPOINT_EVERY)
 * and its final matrix resumes per cell.
 */

#ifndef XPS_COMM_EXPERIMENTS_HH
#define XPS_COMM_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "comm/perf_matrix.hh"
#include "sim/config.hh"
#include "util/csv.hh"
#include "workload/profile.hh"

namespace xps
{

/** Everything the §5 analyses need. */
struct ExperimentContext
{
    std::vector<WorkloadProfile> suite; ///< the 11 profiles
    std::vector<CoreConfig> configs;    ///< customized, suite order
    PerfMatrix matrix;                  ///< Table 5 (final-length runs)

    /** Convenience: configuration of a named workload. */
    const CoreConfig &configOf(const std::string &name) const;
};

/**
 * Load the cached context, or compute it under the Budget env knobs
 * and cache it: an exploration yields Table 4 and Table 5 together; a
 * cached Table 4 without its Table 5 builds the matrix alone.
 */
const ExperimentContext &experimentContext();

/** Paths of the cache files under the current results dir. */
std::string table4CachePath();
std::string table5CachePath();

/** Identity manifests the caches are validated against: the Budget
 *  knobs that shape the result plus every profile's fingerprint (and,
 *  for Table 5, every configuration's fingerprint). A change in any
 *  of them makes the cached file stale. */
CsvManifest table4Manifest(const std::vector<WorkloadProfile> &suite);
CsvManifest table5Manifest(const std::vector<WorkloadProfile> &suite,
                           const std::vector<CoreConfig> &configs);

/** Validated cache accessors (used by experimentContext(); exposed
 *  for the robustness tests). The loaders return false — and leave
 *  the output untouched semantically — on a missing, stale, torn or
 *  corrupt cache file. */
bool loadTable4Cache(const std::vector<WorkloadProfile> &suite,
                     std::vector<CoreConfig> &configs);
void storeTable4Cache(const std::vector<WorkloadProfile> &suite,
                      const std::vector<CoreConfig> &configs);
bool loadTable5Cache(const std::vector<WorkloadProfile> &suite,
                     const std::vector<CoreConfig> &configs,
                     PerfMatrix &matrix);
void storeTable5Cache(const std::vector<WorkloadProfile> &suite,
                      const std::vector<CoreConfig> &configs,
                      const PerfMatrix &matrix);

} // namespace xps

#endif // XPS_COMM_EXPERIMENTS_HH
