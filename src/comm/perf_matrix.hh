/**
 * @file
 * Cross-configuration performance: every workload evaluated on every
 * customized configuration — the paper's Table 5 (IPT) and Appendix A
 * (percentage slowdown versus the workload's own customized
 * configuration). This matrix is the substrate of every communal-
 * customization analysis in §5.
 */

#ifndef XPS_COMM_PERF_MATRIX_HH
#define XPS_COMM_PERF_MATRIX_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "util/csv.hh"
#include "workload/profile.hh"

namespace xps
{

class Supervisor;

/**
 * IPT of workload w (row) on configuration c (column). Rows and
 * columns are indexed identically: column c is the configuration
 * customized for workload c.
 */
class PerfMatrix
{
  public:
    PerfMatrix() = default;

    /**
     * Build by simulating every (workload, configuration) pair on
     * `threads` worker threads (<=0: resolveThreads() — i.e.
     * XPS_THREADS, else the hardware concurrency): the overload below
     * on a thread-backend Supervisor.
     */
    static PerfMatrix build(const std::vector<WorkloadProfile> &suite,
                            const std::vector<CoreConfig> &configs,
                            uint64_t instrs, int threads = 0,
                            const std::string &partialPath = "");

    /**
     * Build on an executor (explore/supervisor.hh): one task per cell
     * on threads, one per row on forked workers. Each task publishes
     * its cells as one identity-validated payload, so a crashed or
     * hung worker is retried without ever surfacing a torn cell, and
     * the values are bit-identical on either backend.
     * @param suite the workloads (rows)
     * @param configs one customized configuration per workload, in
     *        suite order (columns)
     * @param instrs instructions per evaluation
     * @param partialPath when non-empty, the build is crash-safe
     *        (DESIGN.md §7): every merged cell is appended to this
     *        file, a restarted build resumes from the cells already
     *        present (bit-identical — every cell is independent), and
     *        the file is removed once the matrix is complete. A
     *        partial file whose identity manifest does not match
     *        (different suite, configs or budget) or whose tail is
     *        torn mid-line is discarded / truncated, never half-used.
     * @param missingRows a quarantined task leaves its cells NaN and
     *        its workload's name is appended here (when non-null,
     *        once per row) — the matrix still completes (graceful
     *        degradation), and the partial file is kept for a rerun.
     */
    static PerfMatrix build(const std::vector<WorkloadProfile> &suite,
                            const std::vector<CoreConfig> &configs,
                            uint64_t instrs, Supervisor &supervisor,
                            const std::string &partialPath = "",
                            std::vector<std::string> *missingRows =
                                nullptr);

    /** Construct from precomputed values (row-major). */
    PerfMatrix(std::vector<std::string> names,
               std::vector<std::vector<double>> ipt);

    size_t size() const { return names_.size(); }
    const std::vector<std::string> &names() const { return names_; }

    /** IPT of workload `w` on configuration `c`. */
    double ipt(size_t w, size_t c) const;

    /** IPT of workload `w` on its own customized configuration. */
    double ownIpt(size_t w) const { return ipt(w, w); }

    /** Fractional slowdown of workload `w` on configuration `c`
     *  versus its own configuration (Appendix A): 1 - ipt/own. */
    double slowdown(size_t w, size_t c) const;

    /** Index of a workload name; fatal if absent. */
    size_t index(const std::string &name) const;

    /** Best configuration (column) for workload `w` within a subset
     *  of columns; fatal on empty subset. */
    size_t bestConfigFor(size_t w,
                         const std::vector<size_t> &columns) const;

    /** Identity manifest embedded in the partial (crash-resume) file
     *  of a build over these inputs — exposed for the robustness
     *  tests, which craft stale/torn partial files against it. */
    static CsvManifest partialIdentity(
        const std::vector<WorkloadProfile> &suite,
        const std::vector<CoreConfig> &configs, uint64_t instrs);

    /** Serialize / deserialize for result caching. */
    std::vector<std::vector<std::string>> toCsvRows() const;
    static PerfMatrix fromCsv(
        const std::vector<std::string> &header,
        const std::vector<std::vector<std::string>> &rows);

  private:
    std::vector<std::string> names_;
    std::vector<std::vector<double>> ipt_; ///< [row=workload][col=config]
};

} // namespace xps

#endif // XPS_COMM_PERF_MATRIX_HH
