/**
 * @file
 * The headline fault matrix (DESIGN.md §9): for EVERY registered
 * injection site, a supervised run with one injected crash, one hang,
 * and one torn write (plus ENOSPC at write-capable sites) must
 * produce results bit-identical to the fault-free run, with the
 * retries visible in the supervision report — the end-to-end proof
 * that the supervisor + checkpoint + atomic-publish machinery
 * composes into "a fault costs a retry, never an answer".
 *
 * Deterministic by default (every scenario fires on the first visit
 * of its site). When XPS_FAULT_MATRIX_SEED is set (the nightly
 * randomized campaign), each scenario derives its visit number from
 * the seed instead, capped per site so the fault always lands inside
 * the run. Every armed schedule is appended to fault_schedule.log in
 * the working directory, so a failing nightly run can be replayed by
 * exporting the logged XPS_FAULTS string.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "comm/perf_matrix.hh"
#include "explore/explorer.hh"
#include "explore/supervisor.hh"
#include "util/env.hh"
#include "util/fault.hh"
#include "util/rng.hh"

using namespace xps;

namespace
{

struct Scenario
{
    std::string site;
    std::string kind;
    uint64_t nth;
};

/** How deep into the run a site's fault may be scheduled: a derived
 *  nth beyond the site's guaranteed visit count would never fire and
 *  fail the firedCount assertion instead of testing anything. Counts
 *  are conservative floors for the miniature budgets below. */
uint64_t
visitCap(const std::string &site)
{
    if (site == "worker.start")
        return 4; // 2 workloads x 2 rounds of annealing jobs
    if (site == "worker.result")
        return 4; // one publish per workload-round
    if (site == "checkpoint.write")
        return 4; // 3 writes per workload per round at cadence 4
    if (site == "cell.publish")
        return 2; // one publish per matrix row
    return 8;     // sim.run: hundreds of evaluations
}

/** The scenario list: every catalogue site x {crash, hang,
 *  shortwrite}, plus enospc where the site can realize it. */
std::vector<Scenario>
buildScenarios()
{
    const uint64_t seed = envUInt("XPS_FAULT_MATRIX_SEED", 0);
    std::vector<Scenario> all;
    for (const fault::Site &site : fault::sites()) {
        // serve.* sites live in the xps-serve daemon process, not in
        // the explorer/matrix paths this battery drives; the serve
        // tier (tests/serve_test.cc) runs their crash/hang/shortwrite
        // matrix against a live daemon instead.
        if (std::string(site.name).rfind("serve.", 0) == 0)
            continue;
        std::vector<std::string> kinds = {"crash", "hang",
                                          "shortwrite"};
        if (site.write)
            kinds.push_back("enospc");
        for (const std::string &kind : kinds) {
            Scenario s;
            s.site = site.name;
            s.kind = kind;
            s.nth = seed == 0
                        ? 1
                        : 1 + mix64(seed ^ fnv1a(s.site) ^
                                    fnv1a(kind)) %
                                  visitCap(s.site);
            all.push_back(s);
        }
    }
    return all;
}

std::string
spec(const Scenario &s)
{
    return s.site + ":" + s.kind + ":" + std::to_string(s.nth);
}

/** gtest prints a parameter into its ctest name; without this, as
 *  raw bytes. */
void
PrintTo(const Scenario &s, std::ostream *os)
{
    *os << spec(s);
}

/** Record every armed schedule; the nightly CI uploads this file when
 *  the campaign fails, and XPS_FAULTS=<logged spec> replays it. */
void
logSchedule(const std::string &test, const std::string &armed)
{
    std::ofstream log("fault_schedule.log", std::ios::app);
    log << test << " XPS_FAULTS=" << armed << "\n";
}

std::string
freshDir(const std::string &tag)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("xps_fm_" + tag + "_" +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

struct Disarm
{
    ~Disarm() { fault::armSchedule(""); }
};

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
faultSupervisor()
{
    SupervisorOptions opts;
    opts.workers = 2;
    opts.heartbeatTimeoutSeconds = 0.4; // injected hangs die fast
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

/** Fault-free threaded golden, computed once per process. */
const std::vector<WorkloadResult> &
goldenExploration()
{
    static const std::vector<WorkloadResult> golden =
        Explorer(miniSuite(), miniOpts(9)).exploreAll();
    return golden;
}

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

const PerfMatrix &
goldenMatrix()
{
    static const PerfMatrix golden = PerfMatrix::build(
        miniSuite(), miniConfigs(miniSuite()), 4000, 1);
    return golden;
}

class FaultMatrix : public testing::TestWithParam<Scenario>
{
};

} // namespace

TEST_P(FaultMatrix, OneInjectedFaultIsInvisibleInTheResults)
{
    const Scenario &s = GetParam();
    Disarm guard;
    const std::string tag = s.site + "_" + s.kind;

    if (s.site == "cell.publish") {
        // The site lives in the supervised matrix build. Golden first:
        // it must run before the schedule arms, or its own simulate()
        // calls would be counted against the armed visit number.
        const PerfMatrix &golden = goldenMatrix();
        const auto suite = miniSuite();
        const auto configs = miniConfigs(suite);
        fault::armSchedule(spec(s));
        logSchedule(
            std::string("FaultMatrix.") + tag + "/matrix",
            fault::activeSchedule());
        Supervisor sup(faultSupervisor());
        std::vector<std::string> missing;
        const PerfMatrix faulted = PerfMatrix::build(
            suite, configs, 4000, sup, "", &missing);
        EXPECT_EQ(fault::firedCount(), 1u)
            << "schedule " << fault::activeSchedule()
            << " never fired";
        EXPECT_TRUE(missing.empty());
        ASSERT_EQ(faulted.size(), golden.size());
        for (size_t w = 0; w < golden.size(); ++w) {
            for (size_t c = 0; c < golden.size(); ++c)
                EXPECT_EQ(faulted.ipt(w, c), golden.ipt(w, c))
                    << "cell (" << w << ", " << c << ")";
        }
        // The injury must be visible in the supervision report even
        // though the results hide it completely.
        const SupervisorReport &report = sup.report();
        EXPECT_GE(report.crashes + report.hangs, 1u);
        EXPECT_GE(report.retries, 1u);
        EXPECT_TRUE(report.quarantined.empty());
        return;
    }

    // Every other site lives in the supervised exploration path.
    // Golden first, for the same armed-visit-count reason as above.
    const auto &golden = goldenExploration();
    const std::string ckpt = freshDir(tag + "_c");
    ExplorerOptions opts = miniOpts(9);
    opts.supervised = true;
    opts.supervisorOpts = faultSupervisor();
    opts.checkpointEvery = 4;
    opts.checkpointDir = ckpt;

    fault::armSchedule(spec(s));
    logSchedule(std::string("FaultMatrix.") + tag + "/explore",
                fault::activeSchedule());
    Explorer explorer(miniSuite(), opts);
    const auto faulted = explorer.exploreAll();

    EXPECT_EQ(fault::firedCount(), 1u)
        << "schedule " << fault::activeSchedule() << " never fired";
    expectResultsIdentical(faulted, golden);
    const SupervisorReport &report = explorer.supervisorReport();
    EXPECT_GE(report.crashes + report.hangs, 1u);
    EXPECT_GE(report.retries, 1u);
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_TRUE(std::filesystem::is_empty(ckpt));
    std::filesystem::remove_all(ckpt);
}

INSTANTIATE_TEST_SUITE_P(
    Catalogue, FaultMatrix, testing::ValuesIn(buildScenarios()),
    [](const testing::TestParamInfo<Scenario> &info) {
        std::string name = info.param.site + "_" + info.param.kind +
                           "_n" + std::to_string(info.param.nth);
        for (char &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });
