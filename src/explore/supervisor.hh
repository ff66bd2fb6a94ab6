/**
 * @file
 * The one executor of the exploration pipeline (DESIGN.md §9). A
 * Supervisor runs a batch of tasks, each of which computes a result,
 * serializes it (the *payload*) and hands it to its own merge step,
 * which parses, validates and installs it. Two backends run the same
 * tasks through the same serialize/parse code:
 *
 *  - Processes: every task attempt runs in a forked, supervised
 *    worker of util/procpool.hh (heartbeats, deadlines, backoff),
 *    which sends its payload home on its pool pipe through the task's
 *    fault site; the merge runs as the pool's onSuccess.
 *  - Threads: tasks run on util/parallel.hh's parallelFor. There is
 *    no isolation, so heartbeats and deadlines do not apply.
 *
 * On both, a rejected merge is a failed attempt: it is retried up to
 * maxAttempts, then the task is quarantined. Merges never run
 * concurrently with each other. Outcomes come back in task order and
 * accumulate into one report (crashes, hangs, retries, quarantined
 * tasks) that callers embed in their results manifest. The Explorer's
 * annealing rounds and PerfMatrix::build, and with it the explorer's
 * adoption rows and final matrix, all run on a Supervisor.
 */

#ifndef XPS_EXPLORE_SUPERVISOR_HH
#define XPS_EXPLORE_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/procpool.hh"

namespace xps
{

/** Supervision policy: the pool policy plus the backend and a
 *  per-attempt deadline. */
struct SupervisorOptions : ProcPoolOptions
{
    enum class Backend
    {
        Processes, ///< forked, supervised workers
        Threads,   ///< parallelFor threads of this process
    };
    Backend backend = Backend::Processes;
    /** Wall-clock limit per job attempt (seconds, 0 = unlimited;
     *  process backend only). */
    double jobDeadlineSeconds = 0.0;

    /** The process backend under the environment knobs
     *  (util/env.hh): XPS_THREADS workers, XPS_HEARTBEAT_S,
     *  XPS_JOB_DEADLINE_S and XPS_JOB_RETRIES (retries after the first
     *  attempt). */
    static SupervisorOptions fromEnv();

    /** The thread backend on `workers` threads (<=0:
     *  resolveThreads()). */
    static SupervisorOptions onThreads(int workers);
};

/** One unit of work for the executor. */
struct SupervisedTask
{
    std::string name; ///< for logs, traces, the report and backoff jitter
    /** Compute the result and return it serialized. On the process
     *  backend this runs in the forked worker. */
    std::function<std::string()> run;
    /** Parse, validate and install a payload; false rejects the
     *  attempt. Runs in the calling process, one merge at a time. */
    std::function<bool(const std::string &)> merge;
    /** Fault site (util/fault.hh) the process backend's worker
     *  sends its payload through. */
    const char *faultSite = "worker.result";
};

/** One abandoned job, as recorded in the run report. */
struct QuarantinedJob
{
    std::string name;
    int attempts = 0;
    std::string lastError;
};

/** One job's full supervision history (every attempt with timing and
 *  exit detail) — what xps-report renders without guessing. */
struct SupervisedJobRecord
{
    std::string name;
    std::string status; ///< "done" or "quarantined"
    std::vector<ProcAttempt> attempts;
};

/** Cumulative supervision outcome of a run — the results manifest's
 *  record that cells are missing and why, instead of an abort. */
struct SupervisorReport
{
    uint64_t crashes = 0;
    uint64_t hangs = 0;
    uint64_t retries = 0;
    std::vector<QuarantinedJob> quarantined;
    std::vector<SupervisedJobRecord> jobs;

    std::string toJson() const;
};

/** The executor. One instance per run, so a long suite shares one
 *  policy and one report. */
class Supervisor
{
  public:
    explicit Supervisor(SupervisorOptions opts = SupervisorOptions{});

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /** Run every task to Done or Quarantined on the configured
     *  backend; outcomes in task order. Failures and quarantines
     *  accumulate into report(). */
    std::vector<ProcJobOutcome> run(
        const std::vector<SupervisedTask> &tasks);

    const SupervisorReport &report() const { return report_; }

    /** Atomically write report().toJson() to `path`. */
    void writeReport(const std::string &path) const;

    const SupervisorOptions &options() const { return opts_; }

  private:
    std::vector<ProcJobOutcome> runOnProcesses(
        const std::vector<SupervisedTask> &tasks);
    std::vector<ProcJobOutcome> runOnThreads(
        const std::vector<SupervisedTask> &tasks);

    SupervisorOptions opts_;
    SupervisorReport report_;
};

} // namespace xps

#endif // XPS_EXPLORE_SUPERVISOR_HH
