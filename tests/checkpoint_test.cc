/**
 * @file
 * The checkpoint/resume determinism battery (DESIGN.md §7):
 * hex-float round-trips, checkpoint serialization round-trips,
 * annealer snapshot/resume bit-identity, and — the core guarantee —
 * kill-mid-run fault injection: an exploration killed at an arbitrary
 * checkpoint write and resumed in a fresh process state must produce
 * results bit-identical to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <unistd.h>

#include <csignal>

#include "explore/annealer.hh"
#include "explore/checkpoint.hh"
#include "explore/explorer.hh"
#include "explore/search_space.hh"
#include "util/atomic_file.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/shutdown.hh"

using namespace xps;

namespace
{

const UnitTiming &
timing()
{
    static const UnitTiming t;
    return t;
}

const SearchSpace &
space()
{
    static const SearchSpace s(timing());
    return s;
}

std::string
freshDir(const std::string &tag)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("xps_ckpt_" + tag + "_" +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

CsvManifest
testIdentity()
{
    CsvManifest m;
    m.set("kind", std::string("test"));
    m.set("budget", uint64_t{12345});
    return m;
}

/** Strict equality of the fields a caller consumes. */
void
expectResultsIdentical(const std::vector<WorkloadResult> &a,
                       const std::vector<WorkloadResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_TRUE(a[i].best.sameArch(b[i].best))
            << a[i].best.summary() << " vs " << b[i].best.summary();
        EXPECT_EQ(a[i].best.name, b[i].best.name);
        EXPECT_EQ(a[i].bestIpt, b[i].bestIpt); // bit-identical
        EXPECT_EQ(a[i].evaluations, b[i].evaluations);
        EXPECT_EQ(a[i].adoptions, b[i].adoptions);
    }
}

} // namespace

// --- hex-float round-trip --------------------------------------------------

TEST(HexDouble, RoundTripsExactly)
{
    for (double v : {0.0, -0.0, 1.0, 0.3333333333333333,
                     6.02214076e23, 1e-300, -123.456,
                     0.1 + 0.2, std::nextafter(1.0, 2.0)}) {
        double back = 0.0;
        ASSERT_TRUE(parseHexDouble(formatHexDouble(v), back));
        EXPECT_EQ(std::signbit(back), std::signbit(v));
        EXPECT_EQ(back, v);
    }
}

TEST(HexDouble, RejectsGarbage)
{
    double out = 0.0;
    EXPECT_FALSE(parseHexDouble("", out));
    EXPECT_FALSE(parseHexDouble("zzz", out));
    EXPECT_FALSE(parseHexDouble("1.5x", out));
}

// --- checkpoint serialization ----------------------------------------------

namespace
{

WorkloadCheckpoint
sampleWorkloadCheckpoint()
{
    WorkloadCheckpoint ckpt;
    ckpt.round = 2;
    ckpt.evals = 77;
    ckpt.adoptions = 3;
    ckpt.anneal.iteration = 40;
    ckpt.anneal.temp = 0.0123456789;
    ckpt.anneal.rng = {1, 2, 0xdeadbeefULL, UINT64_MAX};
    ckpt.anneal.current = space().initialConfig();
    ckpt.anneal.current.name = "gzip";
    ckpt.anneal.currentScore = 3.14159;
    ckpt.anneal.result.best = space().initialConfig();
    ckpt.anneal.result.bestScore = 3.5;
    ckpt.anneal.result.evaluations = 41;
    ckpt.anneal.result.accepted = 17;
    ckpt.anneal.result.improvementTrace = {{0, 1.0}, {7, 3.5}};
    ckpt.memo = {{"0.33|3|128|64|64|1|2|128|2|32|4|1024|4|128|12",
                  2.25},
                 {"0.5|4|256|64|64|1|2|128|2|32|4|1024|4|128|12",
                  2.5}};
    return ckpt;
}

SuiteCheckpoint
sampleSuiteCheckpoint()
{
    SuiteCheckpoint ckpt;
    ckpt.round = 1;
    for (int i = 0; i < 3; ++i) {
        SuiteWorkloadState ws;
        ws.current = space().initialConfig();
        ws.current.name = "w" + std::to_string(i);
        ws.evals = 10 + static_cast<uint64_t>(i);
        ws.adoptions = static_cast<uint64_t>(i);
        ws.memo = {{"0.33|3|128|64|64|1|2|128|2|32|4|1024|4|128|12",
                    0.5 * i}};
        ckpt.workloads.push_back(ws);
    }
    return ckpt;
}

/** `text` with token `index` of its first line that starts with
 *  `tag` replaced by `token`. */
std::string
replaceToken(std::string text, const std::string &tag, size_t index,
             const std::string &token)
{
    size_t at = text.find("\n" + tag);
    EXPECT_NE(at, std::string::npos) << "no '" << tag << "' line";
    if (at == std::string::npos)
        return text;
    for (size_t i = 0; i < index; ++i)
        at = text.find(' ', at + 1);
    const size_t end = text.find_first_of(" \n", at + 1);
    text.replace(at + 1, end - at - 1, token);
    return text;
}

/** `text` with its first line that starts with `tag` replaced by
 *  `line`. */
std::string
replaceLine(std::string text, const std::string &tag,
            const std::string &line)
{
    const size_t at = text.find("\n" + tag);
    EXPECT_NE(at, std::string::npos) << "no '" << tag << "' line";
    if (at != std::string::npos)
        text.replace(at + 1, text.find('\n', at + 1) - at - 1, line);
    return text;
}

} // namespace

TEST(CheckpointFormat, WorkloadRoundTrip)
{
    const WorkloadCheckpoint ckpt = sampleWorkloadCheckpoint();
    const std::string text =
        serializeWorkloadCheckpoint(ckpt, testIdentity());
    WorkloadCheckpoint back;
    ASSERT_TRUE(parseWorkloadCheckpoint(text, testIdentity(), back));
    EXPECT_EQ(back.round, ckpt.round);
    EXPECT_EQ(back.evals, ckpt.evals);
    EXPECT_EQ(back.adoptions, ckpt.adoptions);
    EXPECT_EQ(back.anneal.iteration, ckpt.anneal.iteration);
    EXPECT_EQ(back.anneal.temp, ckpt.anneal.temp);
    EXPECT_EQ(back.anneal.rng, ckpt.anneal.rng);
    EXPECT_TRUE(back.anneal.current.sameArch(ckpt.anneal.current));
    EXPECT_EQ(back.anneal.current.name, "gzip");
    EXPECT_EQ(back.anneal.currentScore, ckpt.anneal.currentScore);
    EXPECT_EQ(back.anneal.result.bestScore,
              ckpt.anneal.result.bestScore);
    EXPECT_EQ(back.anneal.result.evaluations,
              ckpt.anneal.result.evaluations);
    EXPECT_EQ(back.anneal.result.accepted,
              ckpt.anneal.result.accepted);
    EXPECT_EQ(back.anneal.result.improvementTrace,
              ckpt.anneal.result.improvementTrace);
    EXPECT_EQ(back.memo, ckpt.memo);
}

TEST(CheckpointFormat, SuiteRoundTrip)
{
    const SuiteCheckpoint ckpt = sampleSuiteCheckpoint();
    const std::string text =
        serializeSuiteCheckpoint(ckpt, testIdentity());
    SuiteCheckpoint back;
    ASSERT_TRUE(parseSuiteCheckpoint(text, testIdentity(), back));
    EXPECT_EQ(back.round, ckpt.round);
    ASSERT_EQ(back.workloads.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(back.workloads[i].current.sameArch(
            ckpt.workloads[i].current));
        EXPECT_EQ(back.workloads[i].current.name,
                  ckpt.workloads[i].current.name);
        EXPECT_EQ(back.workloads[i].evals, ckpt.workloads[i].evals);
        EXPECT_EQ(back.workloads[i].adoptions,
                  ckpt.workloads[i].adoptions);
        EXPECT_EQ(back.workloads[i].memo, ckpt.workloads[i].memo);
    }
}

TEST(CheckpointFormat, RejectsSuiteCheckpointWithIptLines)
{
    // An older suite checkpoint carried each workload's incumbent
    // score on an `ipt` line after its `config current` line. The
    // score now comes from the memo, and such a file is rejected
    // rather than misread.
    std::string text = serializeSuiteCheckpoint(sampleSuiteCheckpoint(),
                                                testIdentity());
    SuiteCheckpoint back;
    ASSERT_TRUE(parseSuiteCheckpoint(text, testIdentity(), back));
    size_t inserted = 0;
    for (size_t at = text.find("\nconfig current");
         at != std::string::npos;
         at = text.find("\nconfig current", at + 1)) {
        text.insert(text.find('\n', at + 1) + 1,
                    "ipt " + formatHexDouble(1.5) + "\n");
        ++inserted;
    }
    ASSERT_EQ(inserted, 3u);
    EXPECT_FALSE(parseSuiteCheckpoint(text, testIdentity(), back));
}

TEST(CheckpointFormat, RejectsForeignManifest)
{
    const std::string text = serializeWorkloadCheckpoint(
        sampleWorkloadCheckpoint(), testIdentity());
    CsvManifest other = testIdentity();
    other.set("budget", uint64_t{54321});
    WorkloadCheckpoint back;
    EXPECT_FALSE(parseWorkloadCheckpoint(text, other, back));
}

TEST(CheckpointFormat, RejectsTruncationAtEveryPrefix)
{
    const std::string text = serializeWorkloadCheckpoint(
        sampleWorkloadCheckpoint(), testIdentity());
    // Any prefix that drops at least the trailing end marker must be
    // rejected, whatever line it happens to cut.
    for (size_t len : {size_t{0}, text.size() / 4, text.size() / 2,
                       text.size() - 2}) {
        WorkloadCheckpoint back;
        EXPECT_FALSE(parseWorkloadCheckpoint(text.substr(0, len),
                                             testIdentity(), back))
            << "accepted a " << len << "-byte prefix";
    }
}

TEST(CheckpointFormat, RejectsGarbage)
{
    WorkloadCheckpoint wc;
    SuiteCheckpoint sc;
    for (const char *garbage :
         {"", "not a checkpoint", "xps-checkpoint v999\nendm\nend\n",
          "\x7f\x45\x4c\x46 binary junk \x01\x02"}) {
        EXPECT_FALSE(
            parseWorkloadCheckpoint(garbage, testIdentity(), wc));
        EXPECT_FALSE(parseSuiteCheckpoint(garbage, testIdentity(), sc));
    }

    // Real checkpoints under a valid manifest whose record counts
    // claim more records than the file holds: rejected, never an
    // allocation of the claimed size.
    const std::string huge = "99999999999999999";
    const std::string wtext = serializeWorkloadCheckpoint(
        sampleWorkloadCheckpoint(), testIdentity());
    ASSERT_TRUE(parseWorkloadCheckpoint(wtext, testIdentity(), wc));
    for (const auto &[tag, line] :
         std::vector<std::pair<std::string, std::string>>{
             {"memo.count ", "memo.count " + huge},
             // 2 + 2 * 2^63 wraps to 2, this line's token count.
             {"trace ", "trace 9223372036854775808"}}) {
        EXPECT_FALSE(parseWorkloadCheckpoint(
            replaceLine(wtext, tag, line), testIdentity(), wc))
            << "accepted " << line;
    }
    const std::string stext =
        serializeSuiteCheckpoint(sampleSuiteCheckpoint(), testIdentity());
    ASSERT_TRUE(parseSuiteCheckpoint(stext, testIdentity(), sc));
    for (const auto &[tag, line] :
         std::vector<std::pair<std::string, std::string>>{
             {"memo.count ", "memo.count " + huge},
             {"workloads ", "workloads " + huge}}) {
        EXPECT_FALSE(parseSuiteCheckpoint(replaceLine(stext, tag, line),
                                          testIdentity(), sc))
            << "accepted " << line;
    }

    // Fields that parse as integers but name no state a run can
    // have: a wrapped negative, a config the simulator cannot run
    // (config tokens: tag, name, clock, width, ..., l1_sets at 10), an
    // impossible round, a memo key that is not a config.
    for (const std::string &mutated :
         {replaceToken(stext, "config ", 8, "-1"),   // sched_depth
          replaceToken(stext, "config ", 4, "0"),    // width
          replaceToken(stext, "config ", 10, "96"),  // l1_sets
          replaceLine(stext, "round ", "round -5"),
          replaceToken(stext, "memo ", 1, "a|b"),
          replaceLine(stext, "evals ", "evals -3")}) {
        EXPECT_FALSE(parseSuiteCheckpoint(mutated, testIdentity(), sc))
            << mutated;
    }
}

// --- annealer snapshot/resume ----------------------------------------------

namespace
{

struct ResumeParam
{
    uint64_t checkpointEvery;
    uint64_t seed;
};

/** gtest prints a parameter into its ctest name; without this, as
 *  raw bytes. */
void
PrintTo(const ResumeParam &p, std::ostream *os)
{
    *os << "every=" << p.checkpointEvery << " seed=" << p.seed;
}

class AnnealerResume : public testing::TestWithParam<ResumeParam>
{
};

} // namespace

TEST_P(AnnealerResume, SnapshotResumeIsBitIdentical)
{
    // Interrupt the walk at an arbitrary checkpoint, serialize the
    // snapshot through the real text format, resume it in a *fresh*
    // Annealer, and require the outcome bit-identical to the
    // uninterrupted run.
    AnnealParams params;
    params.iterations = 60;
    params.seed = GetParam().seed;
    const auto objective = [](const CoreConfig &cfg) {
        return 1.0 / cfg.clockNs +
               std::log2(static_cast<double>(cfg.robSize)) / 8.0 +
               static_cast<double>(cfg.iqSize) / 256.0;
    };
    const CoreConfig start = space().initialConfig();

    Annealer golden_annealer(space(), objective, params);
    const AnnealResult golden = golden_annealer.run(start);

    // Capture the first checkpoint the hook sees, through
    // serialization, as a crash would leave it on disk.
    std::string frozen;
    {
        Annealer a(space(), objective, params);
        AnnealerState st = a.begin(start);
        a.resume(st, GetParam().checkpointEvery,
                 [&](const AnnealerState &snap) {
                     if (frozen.empty()) {
                         WorkloadCheckpoint ckpt;
                         ckpt.anneal = snap;
                         frozen = serializeWorkloadCheckpoint(
                             ckpt, testIdentity());
                     }
                 });
    }
    ASSERT_FALSE(frozen.empty());

    WorkloadCheckpoint thawed;
    ASSERT_TRUE(
        parseWorkloadCheckpoint(frozen, testIdentity(), thawed));
    EXPECT_EQ(thawed.anneal.iteration, GetParam().checkpointEvery);
    Annealer resumer(space(), objective, params);
    resumer.resume(thawed.anneal);
    const AnnealResult &res = thawed.anneal.result;

    EXPECT_EQ(res.bestScore, golden.bestScore);
    EXPECT_TRUE(res.best.sameArch(golden.best));
    EXPECT_EQ(res.evaluations, golden.evaluations);
    EXPECT_EQ(res.accepted, golden.accepted);
    EXPECT_EQ(res.improvementTrace, golden.improvementTrace);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnnealerResume,
    testing::Values(ResumeParam{1, 3}, ResumeParam{7, 3},
                    ResumeParam{16, 3}, ResumeParam{59, 3},
                    ResumeParam{7, 11}, ResumeParam{16, 99},
                    ResumeParam{32, 1234567}),
    [](const testing::TestParamInfo<ResumeParam> &info) {
        return "k" + std::to_string(info.param.checkpointEvery) +
               "_seed" + std::to_string(info.param.seed);
    });

TEST(AnnealerResumeDeathTest, RejectsStatePastSchedule)
{
    AnnealParams params;
    params.iterations = 10;
    Annealer a(space(),
               [](const CoreConfig &) { return 1.0; }, params);
    AnnealerState st = a.begin(space().initialConfig());
    st.iteration = 11;
    EXPECT_EXIT(a.resume(st), testing::ExitedWithCode(1),
                "past the schedule");
}

// --- explorer: checkpointed == uncheckpointed ------------------------------

namespace
{

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

} // namespace

TEST(ExplorerCheckpoint, CheckpointedRunMatchesPlainRun)
{
    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();

    const std::string dir = freshDir("plain_eq");
    ExplorerOptions opts = miniOpts(5);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto checked = Explorer(miniSuite(), opts).exploreAll();

    expectResultsIdentical(checked, golden);
    // Completed run must have cleaned its checkpoints up.
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

namespace
{

/** Packed into 16 bytes with no padding: ctest names each case after
 *  these bytes, so the names stay the same from build to build. */
struct KillParam
{
    int killAfterWrites; ///< die at the Nth durable write (see below)
    uint16_t threads;    ///< explorer worker threads
    uint16_t workloads;  ///< suite size: a prefix of killSuite()
    uint64_t seed;
};

void
PrintTo(const KillParam &p, std::ostream *os)
{
    *os << "kill_after=" << p.killAfterWrites << " threads=" << p.threads
        << " workloads=" << p.workloads << " seed=" << p.seed;
}

class ExplorerKillResume : public testing::TestWithParam<KillParam>
{
};

std::vector<WorkloadProfile>
killSuite(size_t workloads)
{
    std::vector<WorkloadProfile> suite = miniSuite();
    suite.push_back(profileByName("twolf"));
    suite.resize(workloads);
    return suite;
}

ExplorerOptions
killOpts(const KillParam &p)
{
    ExplorerOptions opts = miniOpts(p.seed);
    opts.threads = p.threads;
    return opts;
}

/** The checkpoint write that is the last round's barrier: 24 iters /
 *  2 rounds at cadence 4 => 3 anneal writes per workload per round,
 *  then one suite barrier per round. */
int
lastBarrierWrite(const KillParam &p)
{
    return 2 * (3 * p.workloads + 1);
}

/** True when the kill lands inside the final matrix, whose partial
 *  file is the final phase's only checkpoint. */
bool
killsInFinalMatrix(const KillParam &p)
{
    return p.killAfterWrites > lastBarrierWrite(p);
}

/** Death-test body: explore with checkpointing and die at the Nth
 *  durable write, with no cleanup and no flush, exactly like a SIGKILL
 *  at that instant. Up to the last round's barrier, write N is the Nth
 *  checkpoint file and the death is _exit(42). Past it, the final
 *  matrix appends one cell per simulation, so the barrier arms an
 *  injected crash (fault::kCrashExitCode) at the final phase's
 *  (N - barrier)th simulation. */
[[noreturn]] void
exploreAndKill(const std::string &dir, const KillParam &p)
{
    ExplorerOptions opts = killOpts(p);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    auto writes = std::make_shared<std::atomic<int>>(0);
    opts.checkpointWrittenHook = [writes, kill_after = p.killAfterWrites,
                                  barrier = lastBarrierWrite(p)](
                                     const std::string &) {
        const int n = writes->fetch_add(1) + 1;
        if (n >= kill_after)
            ::_exit(42);
        if (n == barrier) // every round task has joined: safe to arm
            fault::armSchedule("sim.run:crash:" +
                               std::to_string(kill_after - barrier));
    };
    Explorer(killSuite(p.workloads), opts).exploreAll();
    ::_exit(0); // unreachable for the kill points we sweep
}

} // namespace

TEST_P(ExplorerKillResume, ResumeAfterKillIsBitIdentical)
{
    const KillParam &p = GetParam();
    // The golden, uninterrupted result.
    const auto golden =
        Explorer(killSuite(p.workloads), killOpts(p)).exploreAll();

    const std::string dir = freshDir(
        "kill" + std::to_string(p.killAfterWrites) + "_s" +
        std::to_string(p.seed) + "_n" + std::to_string(p.workloads) +
        "_t" + std::to_string(p.threads));

    // Phase 1 (in a forked child). The default "fast" death-test
    // style is required: the child must inherit this process's `dir`
    // and run from the fork point (no worker threads are live here —
    // every exploreAll joins its pool).
    EXPECT_EXIT(exploreAndKill(dir, p),
                testing::ExitedWithCode(killsInFinalMatrix(p)
                                            ? fault::kCrashExitCode
                                            : 42),
                "");
    if (killsInFinalMatrix(p)) {
        EXPECT_TRUE(std::filesystem::exists(dir + "/final.partial"));
    }

    // Phase 2: resume from whatever files the kill left behind.
    ExplorerOptions opts = killOpts(p);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto resumed =
        Explorer(killSuite(p.workloads), opts).exploreAll();

    expectResultsIdentical(resumed, golden);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

// 24 iters / 2 rounds at cadence 4 => 3 anneal writes per workload per
// round, then a suite barrier per round (round 0's after adoption).
// Two workloads at one thread: writes 1-6 are round 0, 7 its barrier,
// 8-13 round 1 and 14 its barrier; 17 is the final matrix's third
// simulation, after two cells are in its partial file. Three
// workloads at three threads: writes 1-9 are round 0 (interleaved
// across threads, but always nine), 10 its barrier and 20 round 1's;
// 21 and 23 are the final matrix's first and third simulations.
INSTANTIATE_TEST_SUITE_P(
    Sweep, ExplorerKillResume,
    // {killAfterWrites, threads, workloads, seed}
    testing::Values(KillParam{1, 1, 2, 9}, KillParam{3, 1, 2, 9},
                    KillParam{7, 1, 2, 9}, KillParam{13, 1, 2, 9},
                    KillParam{17, 1, 2, 9}, KillParam{5, 1, 2, 21},
                    KillParam{11, 1, 2, 33}, KillParam{10, 3, 3, 9},
                    KillParam{21, 3, 3, 9}, KillParam{23, 3, 3, 33}),
    [](const testing::TestParamInfo<KillParam> &info) {
        std::string name = "w" +
                           std::to_string(info.param.killAfterWrites) +
                           "_seed" + std::to_string(info.param.seed);
        if (info.param.workloads != 2 || info.param.threads != 1)
            name += "_n" + std::to_string(info.param.workloads) + "_t" +
                    std::to_string(info.param.threads);
        return name;
    });

// --- explorer: the thread count changes nothing ----------------------------

TEST(ExplorerThreads, ResultsAndCheckpointsIdenticalAtAnyThreadCount)
{
    // Four workloads over three rounds, so between-round adoption runs
    // its parallel waves and the final matrix its parallel cells; seed
    // 10 adopts in both phases (three round adoptions, one gross
    // adoption). Every run must match the one-thread run field for
    // field, and so must the bytes of every suite checkpoint it
    // writes.
    const std::vector<WorkloadProfile> suite = {
        profileByName("gzip"), profileByName("mcf"),
        profileByName("twolf"), profileByName("crafty")};
    struct Run
    {
        std::vector<WorkloadResult> results;
        std::vector<std::string> suiteCheckpoints;
        CsvManifest identity;
    };
    auto run = [&](int threads) {
        const std::string dir =
            freshDir("threads" + std::to_string(threads));
        ExplorerOptions opts = miniOpts(10);
        opts.saIters = 36;
        opts.rounds = 3;
        opts.threads = threads;
        opts.checkpointEvery = 4;
        opts.checkpointDir = dir;
        Run r;
        // Suite checkpoints are written on the calling thread; the
        // per-workload ones, skipped here, on the worker threads.
        const std::string suite_path = dir + "/suite.ckpt";
        opts.checkpointWrittenHook = [&](const std::string &path) {
            std::string bytes;
            if (path == suite_path && readFile(path, bytes))
                r.suiteCheckpoints.push_back(std::move(bytes));
        };
        Explorer explorer(suite, opts);
        r.identity = explorer.identity();
        r.results = explorer.exploreAll();
        std::filesystem::remove_all(dir);
        return r;
    };

    const Run serial = run(1);
    uint64_t adoptions = 0;
    for (const WorkloadResult &res : serial.results)
        adoptions += res.adoptions;
    ASSERT_GT(adoptions, 0u) << "seed exercises no adoption";
    // The last suite checkpoint is the last round's barrier: every
    // adoption the results add to it is a gross adoption.
    ASSERT_FALSE(serial.suiteCheckpoints.empty());
    SuiteCheckpoint barrier;
    ASSERT_TRUE(parseSuiteCheckpoint(serial.suiteCheckpoints.back(),
                                     serial.identity, barrier));
    uint64_t barrier_adoptions = 0;
    for (const SuiteWorkloadState &ws : barrier.workloads)
        barrier_adoptions += ws.adoptions;
    EXPECT_GT(adoptions, barrier_adoptions) << "seed makes no gross adoption";

    for (int threads : {2, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const Run par = run(threads);
        ASSERT_EQ(par.results.size(), serial.results.size());
        for (size_t w = 0; w < serial.results.size(); ++w) {
            const WorkloadResult &a = serial.results[w];
            const WorkloadResult &b = par.results[w];
            EXPECT_EQ(a.workload, b.workload);
            EXPECT_EQ(a.best.toCsvRow(), b.best.toCsvRow());
            EXPECT_EQ(std::bit_cast<uint64_t>(a.bestIpt),
                      std::bit_cast<uint64_t>(b.bestIpt));
            EXPECT_EQ(a.evaluations, b.evaluations);
            EXPECT_EQ(a.adoptions, b.adoptions);
        }
        ASSERT_EQ(par.suiteCheckpoints.size(),
                  serial.suiteCheckpoints.size());
        for (size_t i = 0; i < serial.suiteCheckpoints.size(); ++i)
            EXPECT_EQ(par.suiteCheckpoints[i], serial.suiteCheckpoints[i])
                << "suite checkpoint write " << i;
    }
}

namespace
{

/** Death-test body for the graceful-shutdown contract: SIGTERM
 *  arrives mid-exploration (raised from the first checkpoint write,
 *  so the timing is deterministic) and the run must exit with
 *  kGracefulExitCode at the next checkpoint boundary, leaving a
 *  durable, resumable checkpoint behind. */
[[noreturn]] void
exploreAndSigterm(const std::string &dir, uint64_t seed)
{
    installShutdownHandlers();
    ExplorerOptions opts = miniOpts(seed);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    auto once = std::make_shared<std::atomic<bool>>(false);
    opts.checkpointWrittenHook = [once](const std::string &) {
        if (!once->exchange(true))
            ::raise(SIGTERM);
    };
    Explorer(miniSuite(), opts).exploreAll();
    ::_exit(0); // reachable only if the stop request was ignored
}

} // namespace

TEST(ExplorerGracefulShutdown, SigtermExitsAtBoundaryAndResumes)
{
    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();

    const std::string dir = freshDir("sigterm");
    EXPECT_EXIT(exploreAndSigterm(dir, 5),
                testing::ExitedWithCode(kGracefulExitCode), "");

    // The graceful exit flushed a durable checkpoint...
    ASSERT_FALSE(std::filesystem::is_empty(dir));

    // ...which a fresh run resumes to the bit-identical result.
    ExplorerOptions opts = miniOpts(5);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto resumed = Explorer(miniSuite(), opts).exploreAll();
    expectResultsIdentical(resumed, golden);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

TEST(ExplorerCheckpoint, StaleCheckpointFromOtherBudgetIsIgnored)
{
    // Leave checkpoints from a *different* exploration (other seed)
    // in the directory: the run must ignore them and still match its
    // own golden result.
    const std::string dir = freshDir("stale");
    EXPECT_EXIT(exploreAndKill(dir, KillParam{1, 1, 2, 77}),
                testing::ExitedWithCode(42), "");
    ASSERT_FALSE(std::filesystem::is_empty(dir));

    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();
    ExplorerOptions opts = miniOpts(5); // different seed than 77
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto resumed = Explorer(miniSuite(), opts).exploreAll();
    expectResultsIdentical(resumed, golden);
    std::filesystem::remove_all(dir);
}

TEST(ExplorerCheckpoint, CorruptCheckpointFilesAreRecomputedNotCrashed)
{
    const std::string dir = freshDir("corrupt");
    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();

    // Garbage in every checkpoint slot the explorer might read.
    atomicWriteFile(dir + "/suite.ckpt", "total garbage\n\x01\x02");
    atomicWriteFile(dir + "/gzip.ckpt", "xps-checkpoint v1\ntorn");
    atomicWriteFile(dir + "/mcf.ckpt", "");

    ExplorerOptions opts = miniOpts(5);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto resumed = Explorer(miniSuite(), opts).exploreAll();
    expectResultsIdentical(resumed, golden);

    // A real suite checkpoint under the run's own manifest, mutated to
    // a state no run can resume from: each is ignored and the run
    // recomputes, never resumes it or dies on it.
    std::string suite_ckpt;
    opts.checkpointWrittenHook = [&](const std::string &path) {
        if (suite_ckpt.empty() && path == dir + "/suite.ckpt")
            readFile(path, suite_ckpt);
    };
    Explorer(miniSuite(), opts).exploreAll();
    opts.checkpointWrittenHook = nullptr;
    ASSERT_NE(suite_ckpt.find("\nround 1\n"), std::string::npos);
    Counter &rejected =
        Metrics::global().counter("checkpoint.rejected");
    for (const std::string &mutated :
         {replaceToken(suite_ckpt, "config ", 4, "0"), // width
          replaceLine(suite_ckpt, "round ", "round -5"),
          replaceLine(suite_ckpt, "round ", "round 3")}) {
        SCOPED_TRACE(mutated);
        atomicWriteFile(dir + "/suite.ckpt", mutated);
        const uint64_t before = rejected.get();
        expectResultsIdentical(Explorer(miniSuite(), opts).exploreAll(),
                               golden);
        EXPECT_EQ(rejected.get(), before + 1);
    }
    std::filesystem::remove_all(dir);
}
