/**
 * @file
 * Checkpoint serialization for the exploration pipeline (DESIGN.md
 * §7). Two kinds of files live under $XPS_RESULTS_DIR/checkpoints/:
 *
 *  - per-workload files (<workload>.ckpt): the annealing walk of the
 *    current round — full AnnealerState (incumbent, current point,
 *    iteration, temperature, RNG words), the workload's evaluation
 *    memo and counters. Rewritten atomically every
 *    XPS_CHECKPOINT_EVERY iterations.
 *  - one suite file (suite.ckpt): the round-barrier state — every
 *    workload's post-adoption configuration, memo and counters. A
 *    workload's score is its memo's cell for that configuration, so
 *    the file carries no score of its own, and a file with an `ipt`
 *    line is rejected. Written atomically at each barrier, so a crash
 *    never mixes pre- and post-adoption state. The final phase's
 *    checkpoint is its matrix's partial file (final.partial,
 *    comm/perf_matrix.hh).
 *
 * Scores are serialized as C99 hex-floats and configurations (`config`
 * lines, memo keys) as their exact CoreConfig::toCsvRow() cells, so a
 * resumed run continues bit-identically to an uninterrupted one. An
 * identity manifest (budget knobs, seeds, profile fingerprints,
 * search bounds) is embedded in every file; a checkpoint whose
 * manifest does not match the present run is ignored and exploration
 * restarts from scratch — stale state is never silently reused.
 * Parsing is strict: truncated or corrupted files, and configs or
 * memo keys the field table (sim/config.hh) rejects, yield false.
 */

#ifndef XPS_EXPLORE_CHECKPOINT_HH
#define XPS_EXPLORE_CHECKPOINT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "explore/annealer.hh"
#include "util/csv.hh"

namespace xps
{

/** Bit-exact double -> C99 hex-float (round-trips via parseHexDouble). */
std::string formatHexDouble(double value);

/** Parse a hex-float; false on malformed input. */
bool parseHexDouble(const std::string &text, double &out);

/** Write `magic` and `identity` as `m key=value` lines up to `endm`:
 *  the header of checkpoints and of matrix partials and payloads. */
void writeManifestHeader(std::ostream &out, const char *magic,
                         const CsvManifest &identity);

/** Read a writeManifestHeader() header; true when it carries `magic`
 *  and exactly `identity`. A blank line or a '\r' is a reject. */
bool readManifestHeader(std::istream &in, const char *magic,
                        const CsvManifest &identity);

/** Mid-round annealing state of one workload. */
struct WorkloadCheckpoint
{
    int round = 0;      ///< round this walk belongs to
    AnnealerState anneal;
    uint64_t evals = 0;     ///< simulator evaluations so far
    uint64_t adoptions = 0; ///< foreign configurations adopted so far
    /** Evaluation memo: CoreConfig::memoKey() -> IPT. */
    std::vector<std::pair<std::string, double>> memo;
    /** Serialized surrogate model state (IpcPredictor::serialize());
     *  empty when the run has no surrogate. Kept as an opaque string
     *  so checkpoints stay ignorant of the model internals. */
    std::string surrogate;
};

/** One workload's slice of the suite barrier state. */
struct SuiteWorkloadState
{
    CoreConfig current;
    uint64_t evals = 0;
    uint64_t adoptions = 0;
    std::vector<std::pair<std::string, double>> memo;
    /** Serialized surrogate model state; empty when absent. */
    std::string surrogate;
};

/** The round-barrier state of the whole suite. */
struct SuiteCheckpoint
{
    int round = 0;
    std::vector<SuiteWorkloadState> workloads;
};

/** Serialize to the textual checkpoint format with the identity
 *  manifest embedded. */
std::string serializeWorkloadCheckpoint(const WorkloadCheckpoint &ckpt,
                                        const CsvManifest &identity);
std::string serializeSuiteCheckpoint(const SuiteCheckpoint &ckpt,
                                     const CsvManifest &identity);

/**
 * Parse a checkpoint file's content. Returns false — never crashes —
 * when the content is truncated, corrupted, or carries a manifest
 * different from `identity` (stale checkpoint from another budget).
 */
bool parseWorkloadCheckpoint(const std::string &content,
                             const CsvManifest &identity,
                             WorkloadCheckpoint &out);
bool parseSuiteCheckpoint(const std::string &content,
                          const CsvManifest &identity,
                          SuiteCheckpoint &out);

} // namespace xps

#endif // XPS_EXPLORE_CHECKPOINT_HH
