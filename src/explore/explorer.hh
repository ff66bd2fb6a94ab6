/**
 * @file
 * The per-workload exploration driver: runs a simulated-annealing
 * search for every workload of a suite, with the paper's
 * cross-adoption acceleration (§4.1): after each round, every workload
 * is evaluated on every other workload's incumbent configuration and
 * adopts it when it performs better there than on its own. The final
 * phase is one cross matrix at the longer final length, on which the
 * adoption rule applies once more, to gross violations only; remapped
 * to the final configurations, it is the paper's Table 5.
 *
 * A round runs one task per workload on a Supervisor
 * (explore/supervisor.hh): on threads, or on forked workers when
 * `supervised`; either way the post-round state crosses back as a
 * serialized, identity-validated payload. The final matrix runs on the
 * same Supervisor. Between rounds, each workload's adoption candidates
 * are simulated as one parallel wave (util/parallel.hh) before its
 * adoption decisions are taken, in suite order, on the calling thread.
 * Results therefore do not depend on the thread count or the backend
 * (DESIGN.md §6).
 *
 * The output — one customized configuration per workload — is the
 * paper's *configurational characterization* of the suite.
 *
 * Long explorations are crash-safe (DESIGN.md §7): with
 * `checkpointEvery` > 0, per-workload checkpoint files and a suite
 * barrier file are written atomically under `checkpointDir`, the
 * final matrix appends to a partial file there, and a restarted
 * Explorer resumes from them transparently, producing results
 * bit-identical to an uninterrupted run. Checkpoints carry the
 * exploration's identity (identityOf()); stale or corrupted
 * checkpoint files are ignored, never half-used.
 */

#ifndef XPS_EXPLORE_EXPLORER_HH
#define XPS_EXPLORE_EXPLORER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "comm/perf_matrix.hh"
#include "explore/annealer.hh"
#include "explore/checkpoint.hh"
#include "explore/search_space.hh"
#include "explore/supervisor.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/profile.hh"

namespace xps
{

/** Exploration budget and schedule. */
struct ExplorerOptions
{
    uint64_t evalInstrs = 60000; ///< instructions per evaluation
    uint64_t saIters = 300;      ///< total annealing steps per workload
    int rounds = 3;              ///< annealing rounds (adoption between)
    /** Worker threads (<=0: resolveThreads() — i.e. XPS_THREADS,
     *  else the hardware concurrency). */
    int threads = 0;
    uint64_t seed = 7;           ///< master seed
    /** Evaluation length used to score the final configurations
     *  (0 = use evalInstrs). */
    uint64_t finalEvalInstrs = 0;
    /** Minimum relative gain before a foreign configuration is
     *  adopted between rounds (guards config diversity against eval
     *  noise). */
    double adoptionMargin = 0.02;
    /** After the final round, a workload still adopts a foreign
     *  configuration that beats its own by at least this much at the
     *  final evaluation length (the paper's adoption rule, applied
     *  only to gross violations so diversity is preserved). */
    double grossAdoptionMargin = 0.08;

    /** Annealing iterations between checkpoint writes; 0 disables
     *  checkpointing entirely (the default — the cached experiment
     *  pipeline turns it on from XPS_CHECKPOINT_EVERY). */
    uint64_t checkpointEvery = 0;
    /** Checkpoint directory; empty resolves to
     *  $XPS_RESULTS_DIR/checkpoints when checkpointing is enabled. */
    std::string checkpointDir;
    /** Test-only fault-injection hook: called (possibly from worker
     *  threads or processes) after every checkpoint file write with
     *  its path. */
    std::function<void(const std::string &)> checkpointWrittenHook;

    /** Run the annealing round tasks and the final matrix's rows on
     *  forked, supervised worker processes (DESIGN.md §9) instead of
     *  threads: crashes and hangs are retried from the last
     *  checkpoint. On either backend a repeatedly failing task is
     *  quarantined (its workload keeps its last incumbent) rather than
     *  aborting the suite, and results are bit-identical. Enabled by
     *  XPS_SUPERVISE in the cached experiment pipeline. */
    bool supervised = false;
    /** Process-backend policy when `supervised` (workers defaults to
     *  `threads` when <= 0). */
    SupervisorOptions supervisorOpts;
};

/** One workload's exploration outcome. */
struct WorkloadResult
{
    std::string workload;
    CoreConfig best;        ///< customized configuration (name = workload)
    double bestIpt = 0.0;   ///< IPT of the workload on `best`
    uint64_t evaluations = 0;
    uint64_t adoptions = 0; ///< times a foreign config was adopted
};

/** Multi-workload exploration (xp-scalar's main tool). */
class Explorer
{
  public:
    Explorer(std::vector<WorkloadProfile> suite,
             ExplorerOptions opts = ExplorerOptions{},
             ExploreBounds bounds = ExploreBounds{});

    /** Run the full exploration (resuming from checkpoints when
     *  enabled and present); results in suite order. */
    std::vector<WorkloadResult> exploreAll();

    /** Evaluate one workload on one configuration (IPT). With a
     *  trace, the stream is replayed from the shared buffer —
     *  identical result, a fraction of the cost. */
    static double evaluate(const WorkloadProfile &profile,
                           const CoreConfig &config, uint64_t instrs,
                           std::shared_ptr<const TraceBuffer> trace =
                               nullptr);

    const SearchSpace &space() const { return space_; }

    /**
     * The XPS_REDUCE_WORKLOADS=K mapping: cluster the suite's
     * workload characteristics into K groups (fixed seed
     * kWorkloadClusterSeed, so the mapping is stable run to run) and
     * return, for each workload, the index of its cluster's
     * representative. exploreAll() then anneals only representatives
     * and validates every workload — including the skipped ones, on
     * their representative's configuration — at full fidelity in the
     * final phase.
     */
    static std::vector<size_t> reduceWorkloads(
        const std::vector<WorkloadProfile> &suite, size_t k);

    /** The identity of the exploration of `suite` under `opts`,
     *  `bounds` and the walk knobs: every input its results depend
     *  on, and not threads, backend or checkpoint cadence (DESIGN.md
     *  §7.3). It keys the explorer's checkpoints and payloads, the
     *  Table 4 cache and xps-serve's explore entries. */
    static CsvManifest identityOf(
        const std::vector<WorkloadProfile> &suite,
        const ExplorerOptions &opts,
        const ExploreBounds &bounds = ExploreBounds{});

    /** identityOf() this exploration, taken at construction. */
    const CsvManifest &identity() const { return identity_; }

    /** Supervision outcome of the last exploreAll(), on either
     *  backend: one record per round and final-matrix task, plus
     *  crashes, hangs, retries and quarantined tasks. */
    const SupervisorReport &supervisorReport() const
    {
        return supervisorReport_;
    }

    /** Table 5 of the last exploreAll(): every workload (row) on
     *  every final configuration (column) at the final length; its
     *  diagonal is each bestIpt. */
    const PerfMatrix &crossMatrix() const { return crossMatrix_; }

    /** Workloads whose crossMatrix() row was quarantined (NaN). */
    const std::vector<std::string> &crossMissingRows() const
    {
        return crossMissingRows_;
    }

  private:
    /** The environment knobs that change the walk, read only by
     *  fromEnv(): XPS_BATCH (frontier width), XPS_SURROGATE
     *  (screening) and XPS_REDUCE_WORKLOADS (which workloads anneal). */
    struct WalkKnobs
    {
        uint64_t batchWidth, surrogate, reduceWorkloads;
        static WalkKnobs fromEnv();
    };

    std::string workloadCheckpointPath(size_t w) const;
    std::string suiteCheckpointPath() const;

    /** One workload's annealing round: resume from its checkpoint
     *  when one matches, anneal, and return the post-round state.
     *  Pure over `in` + files, so it runs identically on either
     *  executor backend. */
    SuiteWorkloadState annealWorkloadRound(
        size_t w, int round, const SuiteWorkloadState &in,
        const CsvManifest &identity, uint64_t itersPerRound,
        const std::shared_ptr<const TraceBuffer> &trace) const;

    std::vector<WorkloadProfile> suite_;
    ExplorerOptions opts_;
    UnitTiming timing_;
    SearchSpace space_;
    WalkKnobs walk_;
    CsvManifest identity_;
    SupervisorReport supervisorReport_;
    PerfMatrix crossMatrix_;
    std::vector<std::string> crossMissingRows_;
};

} // namespace xps

#endif // XPS_EXPLORE_EXPLORER_HH
