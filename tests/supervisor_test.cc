/**
 * @file
 * The supervised worker-pool battery (DESIGN.md §9): ProcPool crash /
 * hang / deadline / merge-rejection handling with retry and
 * quarantine, graceful degradation when every job fails, the
 * heartbeat-pipe fds an event loop waits on, the executor's task
 * contract on both backends, supervised exploration and matrix builds
 * bit-identical to their threaded counterparts, and
 * SIGKILL-the-supervisor + resume.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "comm/perf_matrix.hh"
#include "explore/explorer.hh"
#include "explore/supervisor.hh"
#include "obs/json.hh"
#include "util/atomic_file.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/procpool.hh"
#include "util/rng.hh"
#include "workload/profile.hh"

#include "scoped_env.hh"

using namespace xps;

namespace
{

std::string
freshDir(const std::string &tag)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("xps_sup_" + tag + "_" +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** Fast-failing pool policy so the retry paths run in milliseconds. */
ProcPoolOptions
fastPool(int workers = 2)
{
    ProcPoolOptions opts;
    opts.workers = workers;
    opts.heartbeatTimeoutSeconds = 0.3;
    opts.maxAttempts = 3;
    opts.backoffBaseSeconds = 0.01;
    opts.backoffCapSeconds = 0.05;
    return opts;
}

bool
fileExists(const std::string &path)
{
    return std::filesystem::exists(path);
}

void
touch(const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    out << "x";
}

ExplorerOptions
miniOpts(uint64_t seed)
{
    ExplorerOptions opts;
    opts.evalInstrs = 4000;
    opts.saIters = 24;
    opts.rounds = 2;
    opts.threads = 1;
    opts.seed = seed;
    opts.finalEvalInstrs = 8000;
    return opts;
}

std::vector<WorkloadProfile>
miniSuite()
{
    return {profileByName("gzip"), profileByName("mcf")};
}

SupervisorOptions
fastSupervisor()
{
    SupervisorOptions opts;
    opts.workers = 2;
    opts.heartbeatTimeoutSeconds = 5.0; // generous; hangs are injected
    opts.maxAttempts = 3;
    opts.backoffBaseSeconds = 0.01;
    opts.backoffCapSeconds = 0.05;
    return opts;
}

void
expectResultsIdentical(const std::vector<WorkloadResult> &a,
                       const std::vector<WorkloadResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_TRUE(a[i].best.sameArch(b[i].best))
            << a[i].best.summary() << " vs " << b[i].best.summary();
        EXPECT_EQ(a[i].bestIpt, b[i].bestIpt); // bit-identical
        EXPECT_EQ(a[i].evaluations, b[i].evaluations);
        EXPECT_EQ(a[i].adoptions, b[i].adoptions);
    }
}

} // namespace

// --- ProcPool --------------------------------------------------------------

TEST(ProcPool, RunsJobsToCompletion)
{
    const std::string dir = freshDir("basic");
    std::vector<ProcJob> jobs;
    for (int i = 0; i < 3; ++i) {
        ProcJob job;
        job.name = "job" + std::to_string(i);
        const std::string out = dir + "/" + job.name;
        job.run = [out]() {
            atomicWriteFile(out, "done");
            return 0;
        };
        job.onSuccess = [out](const std::string &) {
            return fileExists(out);
        };
        jobs.push_back(std::move(job));
    }
    const auto outcomes = ProcPool(fastPool()).run(jobs);
    ASSERT_EQ(outcomes.size(), 3u);
    for (const auto &o : outcomes) {
        EXPECT_EQ(o.status, ProcJobOutcome::Status::Done);
        EXPECT_EQ(o.attempts, 1);
        EXPECT_EQ(o.crashes, 0);
        EXPECT_EQ(o.hangs, 0);
    }
    std::filesystem::remove_all(dir);
}

TEST(ProcPool, WorkerIsolationContainsCrashes)
{
    // A child that dies of a hard signal must not take the pool (or
    // this test process) down.
    std::vector<ProcJob> jobs(1);
    jobs[0].name = "segv";
    jobs[0].run = []() {
        ::raise(SIGSEGV);
        return 0;
    };
    ProcPoolOptions opts = fastPool(1);
    opts.maxAttempts = 1;
    const auto outcomes = ProcPool(opts).run(jobs);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, ProcJobOutcome::Status::Quarantined);
    EXPECT_NE(outcomes[0].lastError.find("signal"), std::string::npos)
        << outcomes[0].lastError;
}

TEST(ProcPool, CrashedJobIsRetriedAndSucceeds)
{
    const std::string dir = freshDir("retry");
    const std::string marker = dir + "/attempted";
    std::vector<ProcJob> jobs(1);
    jobs[0].name = "flaky";
    jobs[0].run = [marker]() {
        if (!fileExists(marker)) {
            touch(marker); // crash only on the first attempt
            ::_exit(3);
        }
        return 0;
    };
    const auto outcomes = ProcPool(fastPool(1)).run(jobs);
    EXPECT_EQ(outcomes[0].status, ProcJobOutcome::Status::Done);
    EXPECT_EQ(outcomes[0].attempts, 2);
    EXPECT_EQ(outcomes[0].crashes, 1);
    EXPECT_EQ(outcomes[0].hangs, 0);
    std::filesystem::remove_all(dir);
}

TEST(ProcPool, HangIsDetectedKilledAndRetried)
{
    const std::string dir = freshDir("hang");
    const std::string marker = dir + "/attempted";
    std::vector<ProcJob> jobs(1);
    jobs[0].name = "hanger";
    jobs[0].run = [marker]() {
        if (!fileExists(marker)) {
            touch(marker);
            for (;;) // stop beating: the supervisor must kill us
                ::usleep(50 * 1000);
        }
        return 0;
    };
    const auto outcomes = ProcPool(fastPool(1)).run(jobs);
    EXPECT_EQ(outcomes[0].status, ProcJobOutcome::Status::Done);
    EXPECT_EQ(outcomes[0].attempts, 2);
    EXPECT_EQ(outcomes[0].hangs, 1);
    EXPECT_EQ(outcomes[0].crashes, 0);
    std::filesystem::remove_all(dir);
}

TEST(ProcPool, HeartbeatsKeepSlowWorkersAlive)
{
    // A job slower than the heartbeat timeout survives as long as it
    // keeps beating.
    std::vector<ProcJob> jobs(1);
    jobs[0].name = "slow-but-alive";
    jobs[0].run = []() {
        for (int i = 0; i < 60; ++i) {
            ProcPool::beat();
            ::usleep(10 * 1000); // 0.6 s total vs 0.3 s hb timeout
        }
        return 0;
    };
    const auto outcomes = ProcPool(fastPool(1)).run(jobs);
    EXPECT_EQ(outcomes[0].status, ProcJobOutcome::Status::Done);
    EXPECT_EQ(outcomes[0].attempts, 1);
    EXPECT_EQ(outcomes[0].hangs, 0);
}

TEST(ProcPool, DeadlineZeroMeansUnlimited)
{
    std::vector<ProcJob> jobs(1);
    jobs[0].name = "no-deadline";
    jobs[0].deadlineSeconds = 0.0;
    jobs[0].run = []() {
        for (int i = 0; i < 20; ++i) {
            ProcPool::beat();
            ::usleep(10 * 1000);
        }
        return 0;
    };
    const auto outcomes = ProcPool(fastPool(1)).run(jobs);
    EXPECT_EQ(outcomes[0].status, ProcJobOutcome::Status::Done);
    EXPECT_EQ(outcomes[0].attempts, 1);
}

TEST(ProcPool, DeadlineExceededCountsAsHang)
{
    std::vector<ProcJob> jobs(1);
    jobs[0].name = "over-deadline";
    jobs[0].deadlineSeconds = 0.1;
    jobs[0].run = []() {
        for (;;) {
            ProcPool::beat(); // beating does not excuse the deadline
            ::usleep(10 * 1000);
        }
        return 0;
    };
    ProcPoolOptions opts = fastPool(1);
    opts.heartbeatTimeoutSeconds = 30.0;
    opts.maxAttempts = 2;
    const auto outcomes = ProcPool(opts).run(jobs);
    EXPECT_EQ(outcomes[0].status, ProcJobOutcome::Status::Quarantined);
    EXPECT_EQ(outcomes[0].attempts, 2);
    EXPECT_EQ(outcomes[0].hangs, 2);
    EXPECT_NE(outcomes[0].lastError.find("deadline"),
              std::string::npos);
}

TEST(ProcPool, RejectedMergeIsRetried)
{
    const std::string dir = freshDir("merge");
    const std::string marker = dir + "/merged_once";
    std::vector<ProcJob> jobs(1);
    jobs[0].name = "picky-merge";
    jobs[0].run = []() { return 0; };
    jobs[0].onSuccess = [marker](const std::string &) {
        if (!fileExists(marker)) {
            touch(marker);
            return false; // reject the first attempt's result
        }
        return true;
    };
    const auto outcomes = ProcPool(fastPool(1)).run(jobs);
    EXPECT_EQ(outcomes[0].status, ProcJobOutcome::Status::Done);
    EXPECT_EQ(outcomes[0].attempts, 2);
    EXPECT_EQ(outcomes[0].crashes, 1); // a rejected merge is a failure
    std::filesystem::remove_all(dir);
}

TEST(ProcPool, AllJobsQuarantinedStillCompletes)
{
    const uint64_t quarantined_before =
        Metrics::global().counter("supervisor.jobs_quarantined").get();
    std::vector<ProcJob> jobs(2);
    jobs[0].name = "doomed0";
    jobs[0].run = []() { return 7; };
    jobs[1].name = "doomed1";
    jobs[1].run = []() { return 8; };
    ProcPoolOptions opts = fastPool();
    opts.maxAttempts = 2;
    const auto outcomes = ProcPool(opts).run(jobs);
    ASSERT_EQ(outcomes.size(), 2u);
    for (const auto &o : outcomes) {
        EXPECT_EQ(o.status, ProcJobOutcome::Status::Quarantined);
        EXPECT_EQ(o.attempts, 2);
        EXPECT_EQ(o.crashes, 2);
        EXPECT_NE(o.lastError.find("exit code"), std::string::npos);
    }
    EXPECT_EQ(
        Metrics::global().counter("supervisor.jobs_quarantined").get(),
        quarantined_before + 2);
}

TEST(ProcPool, ExportsSupervisionCounters)
{
    Metrics &metrics = Metrics::global();
    const uint64_t crashes =
        metrics.counter("supervisor.worker_crashes").get();
    const uint64_t retries =
        metrics.counter("supervisor.job_retries").get();
    const std::string dir = freshDir("counters");
    const std::string marker = dir + "/attempted";
    std::vector<ProcJob> jobs(1);
    jobs[0].name = "counted";
    jobs[0].run = [marker]() {
        if (!fileExists(marker)) {
            touch(marker);
            ::_exit(9);
        }
        return 0;
    };
    ProcPool(fastPool(1)).run(jobs);
    EXPECT_EQ(metrics.counter("supervisor.worker_crashes").get(),
              crashes + 1);
    EXPECT_EQ(metrics.counter("supervisor.job_retries").get(),
              retries + 1);
    // The backoff gauge is part of the export contract too: dump the
    // registry and check the counters appear.
    const std::string json = metrics.toJson();
    EXPECT_NE(json.find("supervisor.worker_crashes"),
              std::string::npos);
    EXPECT_NE(json.find("supervisor.job_retries"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// An event loop that adds wakeFds() to its own poll(2) learns of a
// worker's exit from that one wait, and poll(0) then completes the
// job with the worker's metrics rollup folded in.
TEST(ProcPool, WakeFdsReportWorkerExitWithinOnePoll)
{
    Metrics &metrics = Metrics::global();
    const uint64_t probes0 = metrics.counter("wake.probe").get();
    const uint64_t merged0 =
        metrics.counter("pool.rollups_merged").get();
    ProcPoolOptions opts = fastPool(1);
    opts.heartbeatTimeoutSeconds = 30.0;
    ProcPool pool(opts);
    // The worker waits for a byte on `gate` before it finishes, so it
    // is still alive when wakeFds() is read: a worker that exits
    // within the forking poll(0) is reaped there already.
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    ProcJob job;
    job.name = "wake";
    job.run = [&gate] {
        char go = 0;
        if (::read(gate[0], &go, 1) != 1)
            return 1;
        Metrics::global().counter("wake.probe").add(3);
        return 0;
    };
    const uint64_t ticket = pool.submit(job);
    pool.poll(0); // forks the worker
    const std::vector<int> wake = pool.wakeFds();
    ::close(gate[0]);
    ASSERT_EQ(::write(gate[1], "x", 1), 1);
    ::close(gate[1]);
    ASSERT_EQ(wake.size(), 1u);

    // No events requested: poll(2) returns on the hang-up alone, which
    // comes with the worker's exit (the rollup written before it stays
    // queued in the pipe).
    pollfd pfd = {wake[0], 0, 0};
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
    EXPECT_TRUE(pfd.revents & POLLHUP);

    pool.poll(0);
    const auto done = pool.takeCompleted();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].first, ticket);
    EXPECT_EQ(done[0].second.status, ProcJobOutcome::Status::Done)
        << done[0].second.lastError;
    EXPECT_EQ(metrics.counter("wake.probe").get() - probes0, 3u);
    EXPECT_EQ(metrics.counter("pool.rollups_merged").get() - merged0, 1u);
    EXPECT_TRUE(pool.wakeFds().empty());
}

// A worker that closes its pipe and lives on must not turn the
// caller's wait into a spin: once the pool has seen the pipe hang up
// it leaves wakeFds(), and the job still completes on the caller's
// tick.
TEST(ProcPool, WorkerOutlivingItsPipeIsNotSpunOn)
{
    ProcPoolOptions opts = fastPool(1);
    opts.heartbeatTimeoutSeconds = 30.0;
    ProcPool pool(opts);
    ProcJob job;
    job.name = "pipeless";
    job.run = [] {
        for (int fd = 3; fd < 1024; ++fd)
            ::close(fd); // the heartbeat pipe included
        ::usleep(400000);
        return 0;
    };
    pool.submit(job);
    pool.poll(0);

    auto cpuSeconds = [] {
        timespec ts = {};
        ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    };
    // The loop xps-serve runs: one wait on the pool's fds (for their
    // hang-up) with a 20 ms timeout, then a supervision sweep.
    auto loopFor = [&](std::chrono::milliseconds span) {
        const auto until = std::chrono::steady_clock::now() + span;
        while (pool.inFlight() > 0 &&
               std::chrono::steady_clock::now() < until) {
            std::vector<pollfd> fds;
            for (const int fd : pool.wakeFds())
                fds.push_back({fd, 0, 0});
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 20);
            pool.poll(0);
        }
    };
    const double cpu0 = cpuSeconds();
    loopFor(std::chrono::milliseconds(150));
    EXPECT_EQ(pool.activeWorkers(), 1u); // still asleep
    EXPECT_TRUE(pool.wakeFds().empty());
    loopFor(std::chrono::seconds(10));
    // Spinning through the worker's 400 ms would burn about that much
    // CPU; the loop should sleep on its timeout instead.
    EXPECT_LT(cpuSeconds() - cpu0, 0.1);
    const auto done = pool.takeCompleted();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].second.status, ProcJobOutcome::Status::Done)
        << done[0].second.lastError;
}

// --- results on the pipe ---------------------------------------------------

namespace
{

/** 256 KiB, four times the default pipe buffer, holding every byte
 *  value ('\x01', '\n' and NUL included) and a rollup-frame
 *  lookalike: nothing in a payload may confuse the framing. */
std::string
bulkyPayload()
{
    std::string payload;
    for (size_t i = 0; payload.size() < 256 * 1024; ++i) {
        payload.push_back(static_cast<char>((i * 131 + (i >> 8)) & 0xff));
        if (i == 100000)
            payload += "\x01XPSROLLUP\x01{}\n";
    }
    return payload;
}

/** The xps-serve loop: wait on the pool's fds for their hang-up, then
 *  sweep. `busyMs` bounds the wait while a worker is live. */
std::vector<std::pair<uint64_t, ProcJobOutcome>>
loopUntilDone(ProcPool &pool, int busyMs)
{
    std::vector<std::pair<uint64_t, ProcJobOutcome>> done;
    while (pool.inFlight() > 0) {
        std::vector<pollfd> fds;
        for (const int fd : pool.wakeFds())
            fds.push_back({fd, 0, 0});
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               fds.empty() ? 5 : busyMs);
        pool.poll(0);
        for (auto &d : pool.takeCompleted())
            done.push_back(std::move(d));
    }
    return done;
}

} // namespace

TEST(ProcPool, ResultArrivesByteExactThroughRunAndEventLoop)
{
    const std::string payload = bulkyPayload();
    Metrics &metrics = Metrics::global();
    ProcPoolOptions opts = fastPool(1);
    opts.heartbeatTimeoutSeconds = 30.0;
    std::string received;
    ProcJob job;
    job.name = "bulky";
    job.run = [&payload] {
        ProcPool::sendResult(payload);
        return 0;
    };
    job.onSuccess = [&received](const std::string &got) {
        received = got;
        return true;
    };

    const uint64_t merged0 = metrics.counter("pool.rollups_merged").get();
    const auto outcomes = ProcPool(opts).run({job});
    EXPECT_EQ(outcomes[0].status, ProcJobOutcome::Status::Done)
        << outcomes[0].lastError;
    EXPECT_TRUE(received == payload) << received.size() << " bytes";

    received.clear();
    ProcPool pool(opts);
    pool.submit(job);
    const auto done = loopUntilDone(pool, 20);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].second.status, ProcJobOutcome::Status::Done)
        << done[0].second.lastError;
    EXPECT_TRUE(received == payload) << received.size() << " bytes";
    // Each worker's rollup was found behind its result frame.
    EXPECT_EQ(metrics.counter("pool.rollups_merged").get() - merged0, 2u);
}

// A worker that exits 0 halfway through its frame delivered nothing:
// the attempt is rejected like a crash, retried, then quarantined.
TEST(ProcPool, CutResultFrameIsRejectedRetriedThenQuarantined)
{
    ProcPoolOptions opts = fastPool(1);
    opts.heartbeatTimeoutSeconds = 30.0;
    ProcPool pool(opts);
    int merges = 0;
    ProcJob job;
    job.name = "cut-frame";
    job.run = [] {
        // The loop below drains the pipe only once it hangs up, so the
        // send stalls at the pipe buffer until this alarm's exit cuts
        // it.
        ::signal(SIGALRM, [](int) { ::_exit(0); });
        const itimerval after = {{0, 0}, {0, 200000}};
        ::setitimer(ITIMER_REAL, &after, nullptr);
        ProcPool::sendResult(bulkyPayload());
        return 0;
    };
    job.onSuccess = [&merges](const std::string &) {
        ++merges;
        return true;
    };
    pool.submit(job);
    const auto done = loopUntilDone(pool, 10000);
    ASSERT_EQ(done.size(), 1u);
    const ProcJobOutcome &o = done[0].second;
    EXPECT_EQ(o.status, ProcJobOutcome::Status::Quarantined);
    EXPECT_EQ(o.attempts, opts.maxAttempts);
    EXPECT_EQ(o.crashes, opts.maxAttempts);
    EXPECT_EQ(o.lastError, "result frame cut short");
    for (const ProcAttempt &a : o.attemptLog) {
        EXPECT_EQ(a.outcome, "result torn");
        EXPECT_EQ(a.exitCode, 0);
    }
    EXPECT_EQ(merges, 0);
}

// Only a job that merges a result needs to send one; a merge step
// whose worker sent nothing sees the empty string.
TEST(ProcPool, JobWithoutResultNeedsNoFrame)
{
    std::vector<ProcJob> jobs(2);
    jobs[0].name = "silent";
    jobs[0].run = [] { return 0; };
    jobs[1].name = "silent-merged";
    jobs[1].run = [] { return 0; };
    std::string seen = "unset";
    jobs[1].onSuccess = [&seen](const std::string &got) {
        seen = got;
        return true;
    };
    const auto outcomes = ProcPool(fastPool(2)).run(jobs);
    for (const auto &o : outcomes) {
        EXPECT_EQ(o.status, ProcJobOutcome::Status::Done) << o.lastError;
        EXPECT_EQ(o.attempts, 1);
    }
    EXPECT_EQ(seen, "");
}

// --- Supervisor façade -----------------------------------------------------

TEST(Supervisor, ReportAccumulatesAndSerializes)
{
    const std::string dir = freshDir("report");
    Supervisor sup(fastSupervisor());
    std::vector<SupervisedTask> tasks(2);
    tasks[0].name = "ok";
    tasks[0].run = [] { return std::string(); };
    tasks[0].merge = [](const std::string &) { return true; };
    tasks[1].name = "doomed";
    tasks[1].run = []() -> std::string { ::_exit(13); };
    tasks[1].merge = [](const std::string &) { return true; };
    sup.run(tasks);
    const SupervisorReport &report = sup.report();
    EXPECT_EQ(report.crashes, 3u); // maxAttempts failures
    EXPECT_EQ(report.retries, 2u);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].name, "doomed");
    EXPECT_EQ(report.quarantined[0].attempts, 3);

    const std::string path = dir + "/report.json";
    sup.writeReport(path);
    std::string json;
    ASSERT_TRUE(readFile(path, json));
    EXPECT_NE(json.find("\"worker_crashes\": 3"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"jobs_quarantined\": 1"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"doomed\""), std::string::npos) << json;
    std::filesystem::remove_all(dir);
}

// --- the executor: one test body over both backends -----------------------

namespace
{

struct ExecutorSetup
{
    const char *name;
    SupervisorOptions::Backend backend;
    int workers;
};

/** gtest prints a parameter into its ctest name; without this, as
 *  raw bytes. */
void
PrintTo(const ExecutorSetup &s, std::ostream *os)
{
    *os << (s.backend == SupervisorOptions::Backend::Threads
                ? "threads"
                : "processes")
        << " workers=" << s.workers;
}

class Executor : public testing::TestWithParam<ExecutorSetup>
{
};

} // namespace

TEST_P(Executor, MergesEachPayloadOnceInTaskOrderAndQuarantinesRejects)
{
    // Task i rejects its first i % 3 payloads, so its outcome reads
    // 1 + i % 3 attempts; the last task rejects every payload. Later
    // tasks finish first, so any reordering of outcomes shows.
    constexpr size_t kTasks = 7;
    constexpr size_t kDoomed = kTasks - 1;
    const std::string dir =
        freshDir(std::string("executor_") + GetParam().name);
    auto payload_of = [](size_t i) {
        return "task " + std::to_string(i) + "\n" + std::string(1, '\0') +
               "end";
    };
    std::vector<int> calls(kTasks, 0), accepted(kTasks, 0);
    std::vector<SupervisedTask> tasks(kTasks);
    for (size_t i = 0; i < kTasks; ++i) {
        tasks[i].name = "task" + std::to_string(i);
        tasks[i].run = [&, i] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2 * (kTasks - i)));
            return payload_of(i);
        };
        tasks[i].merge = [&, i](const std::string &payload) {
            EXPECT_EQ(payload, payload_of(i));
            if (i == kDoomed ||
                calls[i]++ < static_cast<int>(i % 3))
                return false;
            ++accepted[i];
            return true;
        };
    }
    SupervisorOptions opts = fastSupervisor();
    opts.backend = GetParam().backend;
    opts.workers = GetParam().workers;
    Supervisor sup(opts);
    const std::vector<ProcJobOutcome> outcomes = sup.run(tasks);

    ASSERT_EQ(outcomes.size(), kTasks);
    for (size_t i = 0; i < kDoomed; ++i) {
        EXPECT_EQ(outcomes[i].status, ProcJobOutcome::Status::Done);
        EXPECT_EQ(outcomes[i].attempts, 1 + static_cast<int>(i % 3));
        EXPECT_EQ(outcomes[i].crashes, static_cast<int>(i % 3));
        EXPECT_EQ(accepted[i], 1) << "task " << i;
    }
    const ProcJobOutcome &doomed = outcomes[kDoomed];
    EXPECT_EQ(doomed.status, ProcJobOutcome::Status::Quarantined);
    EXPECT_EQ(doomed.attempts, opts.maxAttempts);
    EXPECT_EQ(doomed.crashes, opts.maxAttempts);
    EXPECT_EQ(doomed.hangs, 0);
    EXPECT_EQ(accepted[kDoomed], 0);

    // 0+1+2+0+1+2 rejections among the siblings, 3 for the doomed task.
    const SupervisorReport &report = sup.report();
    EXPECT_EQ(report.crashes, 9u);
    EXPECT_EQ(report.hangs, 0u);
    EXPECT_EQ(report.retries, 8u);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].name, "task6");
    EXPECT_EQ(report.quarantined[0].attempts, 3);
    ASSERT_EQ(report.jobs.size(), kTasks);
    for (size_t i = 0; i < kTasks; ++i) {
        EXPECT_EQ(report.jobs[i].name, tasks[i].name);
        EXPECT_EQ(report.jobs[i].status,
                  i == kDoomed ? "quarantined" : "done");
        ASSERT_EQ(report.jobs[i].attempts.size(),
                  static_cast<size_t>(outcomes[i].attempts));
        EXPECT_EQ(report.jobs[i].attempts.back().outcome,
                  i == kDoomed ? "merge rejected" : "ok");
    }
    // Neither backend carries a payload through a file.
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, Executor,
    testing::Values(
        ExecutorSetup{"threads1", SupervisorOptions::Backend::Threads, 1},
        ExecutorSetup{"threads3", SupervisorOptions::Backend::Threads, 3},
        ExecutorSetup{"processes", SupervisorOptions::Backend::Processes,
                      2}),
    [](const testing::TestParamInfo<ExecutorSetup> &info) {
        return std::string(info.param.name);
    });

// --- supervised exploration ------------------------------------------------

TEST(SupervisedExplorer, MatchesThreadedRunBitIdentical)
{
    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();

    ExplorerOptions opts = miniOpts(5);
    opts.supervised = true;
    opts.supervisorOpts = fastSupervisor();
    Explorer explorer(miniSuite(), opts);
    const auto supervised = explorer.exploreAll();

    expectResultsIdentical(supervised, golden);
    const SupervisorReport &report = explorer.supervisorReport();
    EXPECT_EQ(report.crashes, 0u);
    EXPECT_EQ(report.hangs, 0u);
    EXPECT_TRUE(report.quarantined.empty());
}

TEST(SupervisedExplorer, MatchesCheckpointedThreadedRunBitIdentical)
{
    const auto golden = Explorer(miniSuite(), miniOpts(9)).exploreAll();

    const std::string ckpt = freshDir("explore_ckpt_c");
    ExplorerOptions opts = miniOpts(9);
    opts.supervised = true;
    opts.supervisorOpts = fastSupervisor();
    opts.checkpointEvery = 4;
    opts.checkpointDir = ckpt;
    const auto supervised = Explorer(miniSuite(), opts).exploreAll();

    expectResultsIdentical(supervised, golden);
    EXPECT_TRUE(std::filesystem::is_empty(ckpt));
    std::filesystem::remove_all(ckpt);
}

namespace
{

/** Death-test body: supervised + checkpointed exploration, _exit(42)
 *  at the first suite-barrier write — SIGKILL of the *supervisor*
 *  process mid-run (workers have already been joined at the barrier;
 *  any orphans would die via PR_SET_PDEATHSIG). */
[[noreturn]] void
superviseAndKill(const std::string &ckpt, uint64_t seed)
{
    ExplorerOptions opts = miniOpts(seed);
    opts.supervised = true;
    opts.supervisorOpts = fastSupervisor();
    opts.checkpointEvery = 4;
    opts.checkpointDir = ckpt;
    opts.checkpointWrittenHook = [](const std::string &path) {
        if (path.size() >= 10 &&
            path.compare(path.size() - 10, 10, "suite.ckpt") == 0)
            ::_exit(42);
    };
    Explorer(miniSuite(), opts).exploreAll();
    ::_exit(0); // unreachable
}

} // namespace

TEST(SupervisedExplorer, SupervisorKilledMidRunResumesBitIdentical)
{
    const auto golden = Explorer(miniSuite(), miniOpts(9)).exploreAll();

    const std::string ckpt = freshDir("kill_c");
    EXPECT_EXIT(superviseAndKill(ckpt, 9),
                testing::ExitedWithCode(42), "");

    ExplorerOptions opts = miniOpts(9);
    opts.supervised = true;
    opts.supervisorOpts = fastSupervisor();
    opts.checkpointEvery = 4;
    opts.checkpointDir = ckpt;
    const auto resumed = Explorer(miniSuite(), opts).exploreAll();

    expectResultsIdentical(resumed, golden);
    EXPECT_TRUE(std::filesystem::is_empty(ckpt));
    std::filesystem::remove_all(ckpt);
}

TEST(SupervisedExplorer, QuarantinedFinalRowKeepsItsIncumbent)
{
    // The final phase's matrix rows run as forked jobs. One row fails
    // its only attempt: the exploration still completes, the row is
    // reported degraded and stays NaN, its workload keeps the
    // incumbent of the last round's barrier, and the checkpoints still
    // go. The fault is armed at that barrier, where no worker is live,
    // so it lands in the final matrix and not in an adoption row.
    const std::string ckpt = freshDir("final_quarantine");
    ExplorerOptions opts = miniOpts(5);
    opts.supervised = true;
    opts.supervisorOpts = fastSupervisor();
    opts.supervisorOpts.maxAttempts = 1;
    opts.checkpointEvery = 4;
    opts.checkpointDir = ckpt;
    std::string barrier; // runs in this process: the barrier's writer
    int barriers = 0;
    opts.checkpointWrittenHook = [&, rounds = opts.rounds](
                                     const std::string &path) {
        if (path != ckpt + "/suite.ckpt")
            return;
        readFile(path, barrier);
        if (++barriers == rounds) // one final row's result frame
            fault::armSchedule("cell.publish:crash:1");
    };
    Explorer explorer(miniSuite(), opts);
    const auto results = explorer.exploreAll();
    fault::armSchedule("");

    ASSERT_EQ(explorer.degradedWorkloads().size(), 1u);
    const PerfMatrix &table5 = explorer.crossMatrix();
    const size_t bad = table5.index(explorer.degradedWorkloads()[0]);
    const size_t good = 1 - bad;
    SuiteCheckpoint last;
    ASSERT_TRUE(
        parseSuiteCheckpoint(barrier, explorer.identity(), last));
    EXPECT_TRUE(results[bad].best.sameArch(last.workloads[bad].current));
    EXPECT_EQ(results[bad].adoptions, last.workloads[bad].adoptions);
    EXPECT_TRUE(std::isnan(results[bad].bestIpt));
    for (size_t c = 0; c < table5.size(); ++c) {
        EXPECT_TRUE(std::isnan(table5.ipt(bad, c)));
        EXPECT_FALSE(std::isnan(table5.ipt(good, c)));
    }
    EXPECT_EQ(results[good].bestIpt, table5.ipt(good, good));
    EXPECT_EQ(explorer.supervisorReport().quarantined.size(), 1u);
    EXPECT_TRUE(std::filesystem::is_empty(ckpt));
    std::filesystem::remove_all(ckpt);
}

namespace
{

/** A seed at which gzip, the first row of round 0's adoption, adopts
 *  mcf's incumbent in a clean miniOpts() run. */
constexpr uint64_t kAdoptSeed = 12;

/** What one supervised, checkpointed exploration of miniSuite() at
 *  kAdoptSeed left behind. */
struct FaultedRun
{
    std::vector<WorkloadResult> results;
    std::vector<std::string> degraded;
    SupervisorReport report;
    CsvManifest identity;
    std::string barrier;  ///< round 0's barrier (suite.ckpt)
    std::string gzipWalk; ///< gzip.ckpt, read at that barrier
    uint64_t barrierVisits = 0; ///< sim.run visits up to that barrier
    uint64_t fired = 0;
    bool cleanedUp = false; ///< the checkpoint directory ended empty
};

FaultedRun
exploreWithFaults(const std::string &faults, int maxAttempts)
{
    const std::string ckpt = freshDir("adopt_faults");
    ExplorerOptions opts = miniOpts(kAdoptSeed);
    opts.supervised = true;
    opts.supervisorOpts = fastSupervisor();
    opts.supervisorOpts.maxAttempts = maxAttempts;
    opts.checkpointEvery = 4;
    opts.checkpointDir = ckpt;
    FaultedRun run;
    opts.checkpointWrittenHook = [&](const std::string &path) {
        if (path != ckpt + "/suite.ckpt" || !run.barrier.empty())
            return;
        readFile(path, run.barrier);
        readFile(ckpt + "/gzip.ckpt", run.gzipWalk);
        run.barrierVisits = fault::hitCount("sim.run");
    };
    fault::armSchedule(faults);
    Explorer explorer(miniSuite(), opts);
    run.results = explorer.exploreAll();
    run.fired = fault::firedCount();
    fault::armSchedule("");
    run.degraded = explorer.degradedWorkloads();
    run.report = explorer.supervisorReport();
    run.identity = explorer.identity();
    run.cleanedUp = std::filesystem::is_empty(ckpt);
    std::filesystem::remove_all(ckpt);
    return run;
}

} // namespace

TEST(SupervisedExplorer, QuarantinedAdoptionRowKeepsItsIncumbent)
{
    // Between-round adoption rows run as forked jobs too. In a clean
    // run gzip adopts mcf's incumbent after round 0. Here its row
    // fails its only attempt: gzip keeps the incumbent its round
    // ended on, the run completes and names it degraded, no NaN cell
    // is memoized or counted, and the checkpoints still go.
    const FaultedRun clean = exploreWithFaults("", 1);
    SuiteCheckpoint adopted;
    ASSERT_TRUE(
        parseSuiteCheckpoint(clean.barrier, clean.identity, adopted));
    ASSERT_EQ(adopted.workloads[0].adoptions, 1u)
        << "seed makes gzip adopt nothing";

    // The first cell.publish is gzip's adoption row's result frame.
    const FaultedRun run = exploreWithFaults("cell.publish:crash:1", 1);
    EXPECT_EQ(run.fired, 1u);
    EXPECT_EQ(run.degraded, std::vector<std::string>{"gzip"});
    ASSERT_EQ(run.report.quarantined.size(), 1u);
    EXPECT_EQ(run.report.quarantined[0].name, "matrix.gzip");
    SuiteCheckpoint barrier;
    WorkloadCheckpoint walk;
    ASSERT_TRUE(parseSuiteCheckpoint(run.barrier, run.identity, barrier));
    ASSERT_TRUE(
        parseWorkloadCheckpoint(run.gzipWalk, run.identity, walk));
    EXPECT_EQ(walk.round, 0);
    EXPECT_TRUE(
        barrier.workloads[0].current.sameArch(walk.anneal.result.best));
    EXPECT_EQ(barrier.workloads[0].adoptions, 0u);
    for (const SuiteWorkloadState &ws : barrier.workloads) {
        // The scalar walk memoizes every simulation it counts.
        EXPECT_EQ(ws.evals, ws.memo.size());
        for (const auto &[key, ipt] : ws.memo)
            EXPECT_FALSE(std::isnan(ipt)) << key;
    }
    for (const WorkloadResult &r : run.results)
        EXPECT_FALSE(std::isnan(r.bestIpt)) << r.workload;
    EXPECT_TRUE(run.cleanedUp);
}

TEST(SupervisedExplorer, CrashInAdoptionCellIsRetriedInvisibly)
{
    // Every simulation of a supervised exploration runs in a forked
    // worker, adoption cells included. A schedule that never fires
    // counts the sim.run visits up to round 0's barrier; the last is
    // the last adoption cell. A crash there costs its row one retry
    // and changes no result.
    const FaultedRun counted =
        exploreWithFaults("sim.run:crash:1000000000", 3);
    ASSERT_GT(counted.barrierVisits, 0u);
    const FaultedRun run = exploreWithFaults(
        "sim.run:crash:" + std::to_string(counted.barrierVisits), 3);
    EXPECT_EQ(run.fired, 1u);
    expectResultsIdentical(run.results, counted.results);
    EXPECT_EQ(run.barrier, counted.barrier);
    EXPECT_TRUE(run.degraded.empty());
    EXPECT_TRUE(run.report.quarantined.empty());
    EXPECT_EQ(run.report.crashes, 1u);
    EXPECT_EQ(run.report.retries, 1u);
    // The retried job is an adoption row: a matrix job that ran
    // before round 1's tasks.
    const auto &jobs = run.report.jobs;
    size_t retried = jobs.size(), round1 = jobs.size();
    for (size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j].attempts.size() > 1)
            retried = j;
        if (round1 == jobs.size() && jobs[j].name.ends_with(".round1"))
            round1 = j;
    }
    ASSERT_LT(retried, round1);
    EXPECT_TRUE(jobs[retried].name.starts_with("matrix."))
        << jobs[retried].name;
    EXPECT_TRUE(run.cleanedUp);
}

// --- a degraded result is never cached ------------------------------------

namespace
{

/** Run the Table 4 harness over `dir` at a small budget, with the
 *  `extraEnv` assignments on top; `<step>.txt` gets its stdout and
 *  `<step>.json` its metrics. Returns the shell's status. */
int
runTable4(const std::string &dir, const std::string &step,
          const std::string &extraEnv)
{
    const std::string cmd =
        "env XPS_EVAL_INSTRS=3000 XPS_SA_ITERS=24 XPS_FINAL_INSTRS=6000 "
        "XPS_THREADS=2 XPS_BATCH=1 XPS_SURROGATE=0 "
        "XPS_REDUCE_WORKLOADS=0 XPS_SUPERVISE=0 XPS_FAULTS= "
        "XPS_RESULTS_DIR=" + dir + " XPS_METRICS_JSON=" + dir + "/" +
        step + ".json " + extraEnv + " " XPS_TABLE4_BIN " > " + dir +
        "/" + step + ".txt 2> " + dir + "/" + step + ".log";
    return std::system(cmd.c_str());
}

std::string
slurp(const std::string &path)
{
    std::string content;
    EXPECT_TRUE(readFile(path, content)) << path;
    return content;
}

/** Counter `name` of a metrics dump; 0 when absent. */
double
counterOf(const std::string &metricsPath, const std::string &name)
{
    obs::json::Value doc;
    EXPECT_TRUE(obs::json::parse(slurp(metricsPath), doc)) << metricsPath;
    const obs::json::Value *counters = doc.find("counters");
    return counters ? counters->numberOr(name, 0.0) : 0.0;
}

} // namespace

TEST(DegradedExploration, IsNeverCached)
{
    // With no retries, the sixth worker start crashes: round 0's
    // eleven jobs come first, so it is mcf.round0, which is
    // quarantined. Neither table of that run may be stored, so a
    // clean rerun over the same directory explores again and ends
    // with exactly what a fresh clean run prints and caches. Each
    // step is its own process: experimentContext() is computed once
    // per process.
    const std::string degraded = freshDir("degraded");
    const std::string fresh = freshDir("degraded_fresh");
    ASSERT_EQ(runTable4(degraded, "faulted",
                        "XPS_SUPERVISE=1 XPS_JOB_RETRIES=0 "
                        "XPS_FAULTS=worker.start:crash:6"),
              0);
    obs::json::Value report;
    ASSERT_TRUE(obs::json::parse(
        slurp(degraded + "/supervisor_report.json"), report));
    const obs::json::Value *quarantined = report.find("quarantined");
    ASSERT_TRUE(quarantined && quarantined->items.size() == 1);
    EXPECT_EQ(quarantined->items[0].stringOr("job", ""), "mcf.round0");
    EXPECT_FALSE(fileExists(degraded + "/table4_configs.csv"));
    EXPECT_FALSE(fileExists(degraded + "/table5_matrix.csv"));

    ASSERT_EQ(runTable4(degraded, "rerun", ""), 0);
    EXPECT_EQ(counterOf(degraded + "/rerun.json", "cache.table4_hits"), 0);
    EXPECT_EQ(counterOf(degraded + "/rerun.json", "cache.table4_misses"),
              1);
    ASSERT_EQ(runTable4(fresh, "clean", ""), 0);
    EXPECT_EQ(slurp(degraded + "/rerun.txt"), slurp(fresh + "/clean.txt"));
    for (const char *table : {"/table4_configs.csv", "/table5_matrix.csv"})
        EXPECT_EQ(slurp(degraded + table), slurp(fresh + table)) << table;
    std::filesystem::remove_all(degraded);
    std::filesystem::remove_all(fresh);
}

namespace
{

/** Death-test body: the faulted run of ResumeKeepsItsDegradedWorkloads
 *  in this process, under Table 4's identity so that the harness
 *  resumes its checkpoints (`dir`/checkpoints), killed right after
 *  round 0's barrier. */
[[noreturn]] void
exploreTable4AndKill(const std::string &dir)
{
    // runTable4()'s walk knobs, which the Explorer reads.
    test::ScopedEnv batch("XPS_BATCH", "1");
    test::ScopedEnv surrogate("XPS_SURROGATE", "0");
    test::ScopedEnv reduce("XPS_REDUCE_WORKLOADS", "0");
    ExplorerOptions opts;
    opts.evalInstrs = 3000;
    opts.saIters = 24;
    opts.finalEvalInstrs = 6000;
    opts.threads = 2;
    opts.checkpointEvery = 8;
    opts.checkpointDir = dir + "/checkpoints";
    opts.supervised = true;
    opts.supervisorOpts.maxAttempts = 1;
    opts.checkpointWrittenHook = [barrier = opts.checkpointDir +
                                            "/suite.ckpt"](
                                     const std::string &path) {
        if (path == barrier)
            ::_exit(42);
    };
    fault::armSchedule("worker.start:crash:6");
    Explorer(spec2000int(), opts).exploreAll();
    ::_exit(0); // unreachable
}

} // namespace

TEST(DegradedExploration, ResumeKeepsItsDegradedWorkloads)
{
    // IsNeverCached's faulted run, checkpointing every 8 iterations,
    // killed right after round 0's barrier and resumed by a clean run
    // over the same directory. mcf.round0 was quarantined, so the
    // resume must keep mcf frozen and degraded: it ends with what the
    // uninterrupted faulted run prints, names mcf, and caches neither
    // table. Each run is its own process.
    const std::string whole = freshDir("degraded_whole");
    const std::string killed = freshDir("degraded_killed");
    ASSERT_EQ(runTable4(whole, "faulted",
                        "XPS_CHECKPOINT_EVERY=8 XPS_SUPERVISE=1 "
                        "XPS_JOB_RETRIES=0 "
                        "XPS_FAULTS=worker.start:crash:6"),
              0);
    EXPECT_EXIT(exploreTable4AndKill(killed),
                testing::ExitedWithCode(42), "");
    EXPECT_NE(slurp(killed + "/checkpoints/suite.ckpt")
                  .find("\ndegraded 1\n"),
              std::string::npos);

    ASSERT_EQ(runTable4(killed, "resumed", "XPS_CHECKPOINT_EVERY=8"), 0);
    EXPECT_EQ(counterOf(killed + "/resumed.json",
                        "checkpoint.suite_resumes"),
              1);
    EXPECT_EQ(slurp(killed + "/resumed.txt"), slurp(whole + "/faulted.txt"));
    for (const std::string &dir : {whole, killed}) {
        EXPECT_FALSE(fileExists(dir + "/table4_configs.csv")) << dir;
        EXPECT_FALSE(fileExists(dir + "/table5_matrix.csv")) << dir;
    }
    const std::string degraded =
        "1 workloads degraded by quarantined tasks (mcf)";
    EXPECT_NE(slurp(whole + "/faulted.log").find(degraded),
              std::string::npos);
    EXPECT_NE(slurp(killed + "/resumed.log").find(degraded),
              std::string::npos)
        << slurp(killed + "/resumed.log");
    std::filesystem::remove_all(whole);
    std::filesystem::remove_all(killed);
}

// --- supervised matrix -----------------------------------------------------

namespace
{

std::vector<CoreConfig>
miniConfigs(const std::vector<WorkloadProfile> &suite)
{
    const UnitTiming timing;
    const SearchSpace space(timing);
    Rng rng(4242);
    std::vector<CoreConfig> configs;
    for (size_t i = 0; i < suite.size(); ++i) {
        CoreConfig cfg =
            i == 0 ? space.initialConfig() : space.randomConfig(rng);
        cfg.name = suite[i].name;
        configs.push_back(cfg);
    }
    return configs;
}

} // namespace

TEST(SupervisedMatrix, MatchesPlainBuildBitIdentical)
{
    const auto suite = miniSuite();
    const auto configs = miniConfigs(suite);
    const uint64_t instrs = 4000;
    const PerfMatrix golden =
        PerfMatrix::build(suite, configs, instrs, 1);

    Supervisor sup(fastSupervisor());
    std::vector<std::string> missing;
    const PerfMatrix supervised = PerfMatrix::build(
        suite, configs, instrs, sup, "", &missing);

    EXPECT_TRUE(missing.empty());
    ASSERT_EQ(supervised.size(), golden.size());
    for (size_t w = 0; w < golden.size(); ++w) {
        for (size_t c = 0; c < golden.size(); ++c)
            EXPECT_EQ(supervised.ipt(w, c), golden.ipt(w, c))
                << "cell (" << w << ", " << c << ")";
    }
}

TEST(SupervisedMatrix, QuarantinedRowDegradesToMissingCells)
{
    // An impossible deadline quarantines every row job: the build
    // must still complete, report the missing rows, and leave their
    // cells NaN rather than aborting the suite.
    const auto suite = miniSuite();
    const auto configs = miniConfigs(suite);
    SupervisorOptions opts = fastSupervisor();
    opts.jobDeadlineSeconds = 0.01; // each cell needs far longer
    opts.maxAttempts = 2;
    Supervisor sup(opts);
    std::vector<std::string> missing;
    const PerfMatrix degraded = PerfMatrix::build(
        suite, configs, 1000000, sup, "", &missing);

    ASSERT_EQ(missing.size(), suite.size());
    EXPECT_EQ(missing[0], suite[0].name);
    for (size_t w = 0; w < degraded.size(); ++w) {
        for (size_t c = 0; c < degraded.size(); ++c)
            EXPECT_TRUE(std::isnan(degraded.ipt(w, c)));
    }
    const SupervisorReport &report = sup.report();
    EXPECT_EQ(report.quarantined.size(), suite.size());
    EXPECT_GE(report.hangs, 2u);
}
