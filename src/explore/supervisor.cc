#include "explore/supervisor.hh"

#include <chrono>
#include <mutex>
#include <sstream>

#include "obs/json.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace xps
{

SupervisorOptions
SupervisorOptions::fromEnv()
{
    SupervisorOptions opts;
    opts.workers = Budget::get().threads;
    opts.heartbeatTimeoutSeconds =
        static_cast<double>(envUInt("XPS_HEARTBEAT_S", 30));
    opts.jobDeadlineSeconds =
        static_cast<double>(envUInt("XPS_JOB_DEADLINE_S", 0));
    opts.maxAttempts =
        1 + static_cast<int>(envUInt("XPS_JOB_RETRIES", 2));
    return opts;
}

SupervisorOptions
SupervisorOptions::onThreads(int workers)
{
    SupervisorOptions opts;
    opts.backend = Backend::Threads;
    opts.workers = workers;
    return opts;
}

std::string
SupervisorReport::toJson() const
{
    std::ostringstream out;
    out << "{\n  \"worker_crashes\": " << crashes
        << ",\n  \"worker_hangs\": " << hangs
        << ",\n  \"job_retries\": " << retries
        << ",\n  \"jobs_quarantined\": " << quarantined.size()
        << ",\n  \"quarantined\": [";
    for (size_t i = 0; i < quarantined.size(); ++i) {
        out << (i ? "," : "") << "\n    {\"job\": \""
            << obs::json::escape(quarantined[i].name)
            << "\", \"attempts\": " << quarantined[i].attempts
            << ", \"last_error\": \""
            << obs::json::escape(quarantined[i].lastError) << "\"}";
    }
    out << (quarantined.empty() ? "" : "\n  ") << "],\n  \"jobs\": [";
    char buf[64];
    for (size_t j = 0; j < jobs.size(); ++j) {
        const SupervisedJobRecord &job = jobs[j];
        out << (j ? "," : "") << "\n    {\"job\": \""
            << obs::json::escape(job.name) << "\", \"status\": \""
            << job.status << "\", \"attempts\": [";
        for (size_t a = 0; a < job.attempts.size(); ++a) {
            const ProcAttempt &at = job.attempts[a];
            out << (a ? "," : "") << "\n      {\"attempt\": "
                << at.attempt;
            std::snprintf(buf, sizeof(buf), "%.6f",
                          at.startMonoSeconds);
            out << ", \"start_mono_s\": " << buf;
            std::snprintf(buf, sizeof(buf), "%.6f", at.endMonoSeconds);
            out << ", \"end_mono_s\": " << buf << ", \"outcome\": \""
                << obs::json::escape(at.outcome)
                << "\", \"exit_code\": " << at.exitCode
                << ", \"signal\": " << at.signal;
            std::snprintf(buf, sizeof(buf), "%.6f", at.backoffSeconds);
            out << ", \"backoff_s\": " << buf << '}';
        }
        out << (job.attempts.empty() ? "" : "\n    ") << "]}";
    }
    out << (jobs.empty() ? "" : "\n  ") << "]\n}\n";
    return out.str();
}

Supervisor::Supervisor(SupervisorOptions opts) : opts_(std::move(opts))
{
    if (opts_.maxAttempts < 1)
        fatal("Supervisor: maxAttempts must be >= 1 (got %d)",
              opts_.maxAttempts);
    opts_.workers = resolveThreads(opts_.workers);
}

std::vector<ProcJobOutcome>
Supervisor::run(const std::vector<SupervisedTask> &tasks)
{
    const std::vector<ProcJobOutcome> outcomes =
        opts_.backend == SupervisorOptions::Backend::Threads
            ? runOnThreads(tasks)
            : runOnProcesses(tasks);
    for (size_t j = 0; j < outcomes.size(); ++j) {
        const ProcJobOutcome &o = outcomes[j];
        const bool quarantined =
            o.status == ProcJobOutcome::Status::Quarantined;
        report_.crashes += static_cast<uint64_t>(o.crashes);
        report_.hangs += static_cast<uint64_t>(o.hangs);
        if (o.attempts > 1)
            report_.retries += static_cast<uint64_t>(o.attempts - 1);
        if (quarantined)
            report_.quarantined.push_back(
                {tasks[j].name, o.attempts, o.lastError});
        report_.jobs.push_back({tasks[j].name,
                                quarantined ? "quarantined" : "done",
                                o.attemptLog});
    }
    return outcomes;
}

std::vector<ProcJobOutcome>
Supervisor::runOnProcesses(const std::vector<SupervisedTask> &tasks)
{
    std::vector<ProcJob> jobs(tasks.size());
    for (size_t j = 0; j < tasks.size(); ++j) {
        const SupervisedTask &task = tasks[j];
        jobs[j].name = task.name;
        jobs[j].deadlineSeconds = opts_.jobDeadlineSeconds;
        jobs[j].run = [&task] {
            ProcPool::sendResult(task.run(), task.faultSite);
            return 0;
        };
        jobs[j].onSuccess = task.merge;
    }
    return ProcPool(opts_).run(jobs);
}

std::vector<ProcJobOutcome>
Supervisor::runOnThreads(const std::vector<SupervisedTask> &tasks)
{
    auto mono_now = [] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    };
    std::vector<ProcJobOutcome> outcomes(tasks.size());
    std::mutex merge_mutex;
    parallelFor(tasks.size(), opts_.workers, [&](size_t j) {
        const SupervisedTask &task = tasks[j];
        ProcJobOutcome &o = outcomes[j];
        for (;;) {
            ProcAttempt attempt;
            attempt.attempt = ++o.attempts;
            attempt.startMonoSeconds = mono_now();
            const std::string payload = task.run();
            bool merged = false;
            { // merges never overlap, as on the process backend
                std::lock_guard<std::mutex> lock(merge_mutex);
                merged = task.merge(payload);
            }
            attempt.endMonoSeconds = mono_now();
            attempt.outcome = merged ? "ok" : "merge rejected";
            attempt.exitCode = 0;
            o.attemptLog.push_back(std::move(attempt));
            if (merged)
                return;
            ++o.crashes;
            o.lastError = "result rejected by the merge step";
            if (o.attempts >= opts_.maxAttempts) {
                o.status = ProcJobOutcome::Status::Quarantined;
                return;
            }
        }
    });
    return outcomes;
}

void
Supervisor::writeReport(const std::string &path) const
{
    atomicWriteFile(path, report_.toJson());
}

} // namespace xps
