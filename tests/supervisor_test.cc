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
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "comm/perf_matrix.hh"
#include "explore/explorer.hh"
#include "explore/supervisor.hh"
#include "util/atomic_file.hh"
#include "util/metrics.hh"
#include "util/procpool.hh"
#include "util/rng.hh"

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
