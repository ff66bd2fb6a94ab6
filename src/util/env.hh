/**
 * @file
 * Reproduction budget knobs. The paper ran its exploration for three
 * weeks on a blade; these environment variables let the benches run the
 * same pipeline at laptop scale while keeping every run deterministic.
 *
 *   XPS_EVAL_INSTRS      instructions per annealing evaluation
 *   XPS_SA_ITERS         annealing steps per workload
 *   XPS_BATCH            annealing frontier width (sim/batch.hh):
 *                        each round proposes this many neighbours and
 *                        scores them in one batched pass over the
 *                        shared trace with successive-halving
 *                        screening; 1 (the default) is the scalar
 *                        walk. The width is part of the exploration
 *                        identity — scalar and batched runs share no
 *                        checkpoint, Table 4 cache or store entry
 *   XPS_SURROGATE        1 = surrogate-guided screening
 *                        (explore/predictor.hh, DESIGN.md §12): an
 *                        online ridge-regression model trained on
 *                        every paid simulation vetoes confidently-bad
 *                        proposals before they reach the simulator.
 *                        Vetoes only skip work — every adopted score
 *                        still comes from a full-fidelity simulation.
 *                        Part of the exploration identity; the model
 *                        state rides in the checkpoint so resumed
 *                        runs screen bit-identically. Default 0
 *   XPS_REDUCE_WORKLOADS K = cluster the suite's workloads by their
 *                        measured characteristics (util/kmeans.hh,
 *                        pinned seed) and anneal only the K cluster
 *                        representatives; the other workloads inherit
 *                        their representative's configuration and are
 *                        still validated at full fidelity on the
 *                        whole suite in the final phase. 0 (default)
 *                        explores every workload. Part of the
 *                        exploration identity
 *   XPS_FINAL_INSTRS     instructions for final cross-config evaluations
 *   XPS_RESULTS_DIR      cache directory for exploration outputs
 *   XPS_THREADS          worker threads for parallel exploration
 *   XPS_CHECKPOINT_EVERY annealing iterations between checkpoint
 *                        writes in the cached experiment pipeline
 *                        (0 disables checkpointing)
 *   XPS_METRICS_JSON     when set, dump the metrics registry to this
 *                        file at process exit (util/metrics.hh)
 *   XPS_CHECK            1 = attach a fail-fast structural invariant
 *                        checker to every simulate() run
 *                        (check/invariant_checker.hh); default 0
 *   XPS_FUZZ_ITERS       iterations of the differential fuzz tier
 *                        (`ctest -L prop`); default 500
 *   XPS_REGEN_GOLDEN     1 = golden_snapshot_test rewrites the
 *                        committed tests/golden/ snapshots instead of
 *                        comparing against them
 *   XPS_SUPERVISE        1 = run annealing rounds and PerfMatrix rows
 *                        on the executor's process backend
 *                        (explore/supervisor.hh) instead of threads;
 *                        default 0
 *   XPS_HEARTBEAT_S      seconds without a worker heartbeat before
 *                        the supervisor kills it as hung (default 30,
 *                        0 disables hang detection)
 *   XPS_JOB_DEADLINE_S   wall-clock limit per supervised job attempt
 *                        in seconds (default 0 = unlimited)
 *   XPS_JOB_RETRIES      retries after the first failed attempt
 *                        before a job is quarantined, in the pipeline
 *                        and in xps-serve (default 2: three attempts)
 *   XPS_FAULTS           deterministic fault schedule,
 *                        "site:kind:nth[:seed],..." (util/fault.hh)
 *   XPS_TRACE_JSON       when set, arm the span tracer (obs/tracer.hh)
 *                        and merge every process's trace shard into a
 *                        Perfetto-loadable timeline at this path at
 *                        exit; disabled tracing costs one predicted
 *                        branch per instrumentation point
 *   XPS_TRACE_MERGE      0 = shard-only mode for the trace and the
 *                        structured log (obs/shard.hh): flush at exit
 *                        but never merge — for a process (xps-client)
 *                        joining a session whose merge a longer-lived
 *                        daemon owns (default 1)
 *   XPS_LOG_JSON         when set, arm structured JSON logging
 *                        (obs/log.hh) and merge every process's log
 *                        shard into one ts-sorted JSONL stream at
 *                        this path at exit
 *   XPS_LOG_LEVEL        debug|info|warn|error floor for structured
 *                        log events (default info)
 *   XPS_LOG_RATE         max structured log events per (component,
 *                        level) per second; excess is counted and
 *                        summarized (default 200, 0 = unlimited)
 *   XPS_METRICS_EXPORT_S cadence in seconds (finite, >= 0; fractions
 *                        ok) for the serve daemon's atomic Prometheus
 *                        text-exposition snapshot at
 *                        <state-dir>/metrics.prom (default 0 = off)
 *
 * Malformed numeric values (garbage, overflow, NaN, infinity, and
 * negatives where a count or a duration is expected) warn once and
 * fall back to the documented default — a typo'd knob degrades a run
 * instead of crashing it.
 */

#ifndef XPS_UTIL_ENV_HH
#define XPS_UTIL_ENV_HH

#include <cstdint>
#include <string>

namespace xps
{

/** Read an integer environment variable with a default. Malformed or
 *  overflowing values warn once and yield the default. */
int64_t envInt(const char *name, int64_t def);

/** Read a non-negative integer environment variable with a default.
 *  Malformed, overflowing, or negative values warn once and yield the
 *  default. */
uint64_t envUInt(const char *name, uint64_t def);

/** Read a non-negative, finite floating-point environment variable
 *  with a default. Garbage, negative, NaN and infinite values warn
 *  once and yield the default. */
double envDouble(const char *name, double def);

/** Read a string environment variable with a default. */
std::string envString(const char *name, const std::string &def);

/**
 * Resolve a worker-thread count. A positive `requested` wins;
 * otherwise XPS_THREADS; otherwise the hardware concurrency; always
 * at least 1. Every parallel entry point (Explorer, PerfMatrix,
 * the bench drivers) routes through this so XPS_THREADS is honored
 * uniformly.
 */
int resolveThreads(int requested = 0);

/** Budget knobs resolved once per process. */
struct Budget
{
    uint64_t evalInstrs;   ///< instructions per annealing evaluation
    uint64_t saIters;      ///< annealing steps per workload
    uint64_t finalInstrs;  ///< instructions per final evaluation
    std::string resultsDir;///< cache directory for exploration outputs
    int threads;           ///< exploration worker threads
    /** Annealing iterations between checkpoint writes in the cached
     *  experiment pipeline (0 = checkpointing off). */
    uint64_t checkpointEvery;
    /** Run exploration and matrix builds on the supervised
     *  process-isolated worker pool (XPS_SUPERVISE). */
    bool supervise;

    /** Resolve from the environment (with defaults from DESIGN.md). */
    static const Budget &get();
};

} // namespace xps

#endif // XPS_UTIL_ENV_HH
