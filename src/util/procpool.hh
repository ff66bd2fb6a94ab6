/**
 * @file
 * Supervised process-isolated worker pool (DESIGN.md §9). Jobs run in
 * forked child processes instead of raw std::threads, so a worker
 * that segfaults, fatals, or hangs takes down only its own attempt:
 *
 *  - every worker gets a heartbeat pipe back to the supervisor; the
 *    job's inner loops call ProcPool::beat() (a rate-limited one-byte
 *    write, a no-op outside a worker) and a worker whose beats stop
 *    for longer than the heartbeat timeout is SIGKILLed and counted
 *    as a hang;
 *  - every attempt has an optional wall-clock deadline (0 = none);
 *  - a crashed (non-zero exit or signal) or hung attempt is requeued
 *    with capped exponential backoff plus deterministic jitter;
 *  - after maxAttempts failures the job is QUARANTINED — recorded in
 *    the outcome (and the supervisor.jobs_quarantined counter) while
 *    the rest of the batch keeps running: graceful degradation, never
 *    a six-hour suite aborted by one bad cell.
 *
 * Results cross the process boundary through files the job writes
 * itself (the atomicWriteFile path), validated by the parent-side
 * `onSuccess` merge callback; a merge that returns false counts as a
 * failed attempt. A killed worker therefore can never publish a torn
 * result.
 *
 * The supervisor loop is single-threaded and must be entered with no
 * live worker std::threads (fork + threads do not mix); all explore/
 * comm callers satisfy this by construction.
 *
 * Metrics: supervisor.worker_crashes, supervisor.worker_hangs,
 * supervisor.job_retries, supervisor.jobs_quarantined, and
 * supervisor.backoff_seconds land in XPS_METRICS_JSON /
 * BENCH_results.json via util/metrics.
 *
 * Worker metrics rollup (DESIGN.md §14): a forked worker's own
 * counters and latency histograms (sim.run, anneal.step, ...) would
 * die with its address space. Instead the child zeroes its inherited
 * registry right after fork and, before _exit, ships the delta as a
 * marker-framed JSON line over the heartbeat pipe; the supervisor
 * folds it into the parent registry bucket-wise at reap
 * (pool.rollups_merged / pool.rollups_torn), so the daemon's metrics
 * op and the final XPS_METRICS_JSON dump include worker-side work.
 */

#ifndef XPS_UTIL_PROCPOOL_HH
#define XPS_UTIL_PROCPOOL_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace xps
{

/** One unit of supervised work. */
struct ProcJob
{
    std::string name; ///< for logs, metrics and backoff jitter

    /** Runs in the forked child; the return value is the child's exit
     *  code (0 = success). Publish results to files before returning
     *  — child memory is gone afterwards. */
    std::function<int()> run;

    /** Parent-side merge/validation, called after a zero exit; return
     *  false to reject the attempt (it is retried like a crash).
     *  Optional. */
    std::function<bool()> onSuccess;

    /** Wall-clock limit per attempt in seconds; 0 = unlimited. */
    double deadlineSeconds = 0.0;
};

/** Supervision policy. */
struct ProcPoolOptions
{
    /** Concurrent workers (<=0: resolveThreads(), i.e. XPS_THREADS
     *  else the hardware concurrency). */
    int workers = 0;
    /** Kill a worker whose heartbeats stop for this long (seconds);
     *  0 disables hang detection (deadlines still apply). */
    double heartbeatTimeoutSeconds = 30.0;
    /** Attempts before a job is quarantined (>= 1). */
    int maxAttempts = 3;
    double backoffBaseSeconds = 0.05; ///< first-retry backoff
    double backoffCapSeconds = 2.0;   ///< exponential backoff cap
    uint64_t jitterSeed = 1; ///< deterministic backoff jitter seed
};

/** One attempt of one job, as timed by the supervisor. Monotonic
 *  stamps share the trace clock (steady_clock seconds), so report
 *  tooling can line attempts up against the merged timeline. */
struct ProcAttempt
{
    int attempt = 0;               ///< 1-based attempt number
    double startMonoSeconds = 0.0; ///< fork observed (parent side)
    double endMonoSeconds = 0.0;   ///< reap / kill observed
    /** "ok", "merge rejected", "exit N", "signal N", "hang",
     *  "deadline". */
    std::string outcome;
    int exitCode = -1; ///< valid when the child exited normally
    int signal = 0;    ///< terminating signal (SIGKILL for kills)
    /** Backoff applied before the next attempt (0 when none). */
    double backoffSeconds = 0.0;
};

/** What happened to one job across all its attempts. */
struct ProcJobOutcome
{
    enum class Status
    {
        Done,        ///< an attempt succeeded and merged
        Quarantined, ///< maxAttempts failures; job abandoned
    };
    Status status = Status::Done;
    int attempts = 0; ///< attempts consumed (completed or killed)
    int crashes = 0;  ///< non-zero exits, signals, rejected merges
    int hangs = 0;    ///< heartbeat or deadline kills
    std::string lastError; ///< human-readable cause of the last failure
    /** Every attempt in order, with timing and exit detail (feeds
     *  supervisor_report.json and xps-report). */
    std::vector<ProcAttempt> attemptLog;
};

/**
 * The supervised pool. Two driving styles share one engine:
 *
 *  - run(jobs): the batch mode every pre-serve caller uses — submit
 *    everything, supervise to completion, outcomes in job order.
 *  - submit()/poll()/takeCompleted(): the incremental mode the
 *    xps-serve daemon event loop drives — jobs trickle in while the
 *    loop keeps accepting client connections between poll() calls,
 *    and finished outcomes are collected without ever blocking on
 *    the rest of the fleet. Heartbeats, deadlines, retries and
 *    quarantine behave identically in both modes.
 *
 * An event loop keeps one wait point by adding wakeFds() to its own
 * poll(2) set: a worker's pipe hangs up when the worker exits, after
 * its rollup is written, so the loop wakes the moment a job finishes
 * and hands the reap to poll(0). The xps-serve loop (DESIGN.md §13.1)
 * wakes on three sources: its listening socket, its client
 * connections, and these pipes. Its 20 ms timeout then bounds only
 * what no fd announces: heartbeat and deadline checks, retry backoff,
 * the metrics export cadence and the stop flag.
 *
 * The pool is single-threaded: submit/poll/takeCompleted (and run)
 * must be called from one thread, with no live worker std::threads
 * (fork + threads do not mix).
 */
class ProcPool
{
  public:
    explicit ProcPool(ProcPoolOptions opts = ProcPoolOptions{});

    /** Run every job to Done or Quarantined; outcomes in job order.
     *  Never throws on worker failure — supervision is the point. */
    std::vector<ProcJobOutcome> run(const std::vector<ProcJob> &jobs);

    /**
     * Incremental mode: enqueue one job and return its ticket. The
     * job starts on a later poll() when a worker slot is free;
     * tickets are monotonically increasing and never reused.
     */
    uint64_t submit(ProcJob job);

    /**
     * One supervision iteration: launch ready jobs into free slots,
     * wait up to `timeoutMs` for heartbeats or exits, reap finished
     * children, kill hangs and blown deadlines, and requeue or
     * quarantine failures. Returns immediately when there is nothing
     * to supervise. Safe to call with 0 for a sweep that does not
     * block, beyond waiting out a hung-up worker's exit (at most
     * kExitWindow, once per worker).
     */
    void poll(int timeoutMs);

    /** Jobs submitted but not yet completed (queued, backing off, or
     *  running). */
    size_t inFlight() const;

    /** Workers currently forked and alive. */
    size_t activeWorkers() const { return active_.size(); }

    /**
     * Read ends of the live workers' heartbeat pipes, for a caller
     * that waits in its own poll(2). A pipe hangs up when its worker
     * exits; call poll(0) then, and it reaps the worker (waiting out
     * the few microseconds before the worker is reapable, at most
     * kExitWindow). A pipe leaves the set once poll() has seen it
     * hang up, so a worker that outlives its pipe costs the caller no
     * spinning and is reaped or killed on the caller's tick.
     */
    std::vector<int> wakeFds() const;

    /** Collect the outcomes of every job that reached Done or
     *  Quarantined since the last call, as (ticket, outcome) pairs in
     *  completion order. */
    std::vector<std::pair<uint64_t, ProcJobOutcome>> takeCompleted();

    /** Child-side heartbeat; call from job inner loops. Rate-limited
     *  internally and a no-op when not inside a worker process. */
    static void beat();

    const ProcPoolOptions &options() const { return opts_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** How long poll() waits, once, for a worker whose pipe hung up
     *  to become reapable (the kernel closes a dying process's fds
     *  just before it turns it into a zombie). */
    static constexpr Clock::duration kExitWindow =
        std::chrono::milliseconds(2);

    struct Active
    {
        uint64_t ticket;
        pid_t pid;
        int pipeRd;
        Clock::time_point start;
        Clock::time_point lastBeat;
        /** When poll() first saw the pipe hang up; epoch while open. */
        Clock::time_point hungUp{};
        /** Bytes read off the heartbeat pipe: beats, then (on a clean
         *  worker exit) the marker-framed metrics rollup payload. */
        std::string pipeBuf;
    };
    struct Pending
    {
        uint64_t ticket;
        Clock::time_point readyAt;
    };

    void spawn(uint64_t ticket);
    void harvestRollup(Active &a);
    void failAttempt(uint64_t ticket, bool hang, const std::string &why);
    void recordAttempt(const Active &a, Clock::time_point end,
                       std::string outcome, int exitCode, int sig);
    void handleExit(size_t slot, int status);
    void finish(uint64_t ticket);

    ProcPoolOptions opts_;
    uint64_t nextTicket_ = 1;
    std::deque<Pending> pending_;
    std::vector<Active> active_;
    /** Submitted-but-unfinished jobs and their accumulating outcomes. */
    std::map<uint64_t, ProcJob> jobs_;
    std::map<uint64_t, ProcJobOutcome> outcomes_;
    std::vector<std::pair<uint64_t, ProcJobOutcome>> completed_;
};

} // namespace xps

#endif // XPS_UTIL_PROCPOOL_HH
