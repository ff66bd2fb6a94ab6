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
 * Each cache file carries the identity of its result (DESIGN.md
 * §7.3): Table 4 the exploration's (Explorer::identityOf() of the
 * pipeline's options, so budget, walk knobs and profiles), Table 5
 * the matrix's (PerfMatrix::identity() of the suite, the Table 4
 * configurations and the final length). A cache written under other
 * inputs, or torn by a crash, is rejected and recomputed — never
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
