/**
 * @file
 * Unit and property tests for src/explore: search-space moves always
 * produce legal configurations, the annealer improves analytic
 * objectives and honours the paper's rollback rule, and the explorer
 * produces customized configurations end to end on a small budget.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>

#include "comm/perf_matrix.hh"
#include "explore/annealer.hh"
#include "explore/explorer.hh"
#include "explore/search_space.hh"
#include "util/metrics.hh"

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

} // namespace

// --- SearchSpace ---------------------------------------------------------

TEST(SearchSpace, InitialConfigIsLegal)
{
    const CoreConfig cfg = space().initialConfig();
    EXPECT_EQ(cfg.checkFits(timing()), "");
}

TEST(SearchSpace, NeighborsAreLegalAndDifferent)
{
    Rng rng(21);
    CoreConfig current = space().initialConfig();
    int produced = 0;
    for (int i = 0; i < 300; ++i) {
        CoreConfig next;
        if (!space().neighbor(current, rng, next))
            continue;
        ++produced;
        ASSERT_EQ(next.checkFits(timing()), "") << next.summary();
        ASSERT_FALSE(next.sameArch(current));
        current = next;
    }
    EXPECT_GT(produced, 200);
}

TEST(SearchSpace, NeighborsRespectBounds)
{
    ExploreBounds bounds;
    bounds.minClockNs = 0.25;
    bounds.maxClockNs = 0.40;
    bounds.maxL2CapacityBytes = 1ULL << 20;
    const SearchSpace tight(timing(), bounds);
    Rng rng(22);
    CoreConfig current = tight.initialConfig();
    for (int i = 0; i < 200; ++i) {
        CoreConfig next;
        if (!tight.neighbor(current, rng, next))
            continue;
        ASSERT_GE(next.clockNs, bounds.minClockNs - 1e-9);
        ASSERT_LE(next.clockNs, bounds.maxClockNs + 1e-9);
        ASSERT_LE(next.l2CapacityBytes(), bounds.maxL2CapacityBytes);
        ASSERT_LE(next.schedDepth, bounds.maxSchedDepth);
        current = next;
    }
}

TEST(SearchSpace, RefitShrinksOversizedWindows)
{
    Rng rng(23);
    CoreConfig cfg = space().initialConfig();
    cfg.clockNs = 0.15; // much faster clock: old sizes no longer fit
    cfg.schedDepth = 2; // a 1-stage scheduler is impossible at 0.15ns
    ASSERT_TRUE(space().refit(cfg, rng));
    EXPECT_EQ(cfg.checkFits(timing()), "");
}

TEST(SearchSpace, RefitKeepsFittingCacheGeometry)
{
    Rng rng(24);
    CoreConfig cfg = space().initialConfig();
    const uint64_t l1_sets = cfg.l1Sets;
    cfg.clockNs *= 1.05; // slower clock: everything still fits
    ASSERT_TRUE(space().refit(cfg, rng));
    EXPECT_EQ(cfg.l1Sets, l1_sets);
}

TEST(SearchSpace, RandomConfigsAreLegal)
{
    Rng rng(25);
    for (int i = 0; i < 50; ++i) {
        const CoreConfig cfg = space().randomConfig(rng);
        ASSERT_EQ(cfg.checkFits(timing()), "") << cfg.summary();
    }
}

TEST(SearchSpace, ClockMoveRefitsWindowSizes)
{
    // At a very fast clock the maximal IQ must be smaller than at a
    // slow clock (the Figure-2 coupling, exercised through moves).
    Rng rng(26);
    uint32_t fast_iq = 0, slow_iq = 0;
    for (int i = 0; i < 64; ++i) {
        CoreConfig fast = space().initialConfig();
        fast.clockNs = 0.16;
        if (space().refit(fast, rng))
            fast_iq = std::max(fast_iq, fast.iqSize);
        CoreConfig slow = space().initialConfig();
        slow.clockNs = 0.6;
        if (space().refit(slow, rng))
            slow_iq = std::max(slow_iq, slow.iqSize);
    }
    EXPECT_GT(slow_iq, fast_iq);
}

TEST(SearchSpaceDeathTest, RejectsBadBounds)
{
    ExploreBounds bounds;
    bounds.minClockNs = 0.01; // below latch latency
    EXPECT_EXIT(SearchSpace(timing(), bounds),
                testing::ExitedWithCode(1), "latch");
}

// --- Annealer --------------------------------------------------------------

TEST(Annealer, ImprovesAnalyticObjective)
{
    // Objective: prefer big ROBs and slow clocks; the annealer should
    // find a configuration much better than the start.
    AnnealParams params;
    params.iterations = 400;
    params.seed = 3;
    const auto objective = [](const CoreConfig &cfg) {
        return std::log2(static_cast<double>(cfg.robSize)) +
               2.0 * cfg.clockNs;
    };
    Annealer annealer(space(), objective, params);
    const CoreConfig start = space().initialConfig();
    const AnnealResult res = annealer.run(start);
    EXPECT_GT(res.bestScore, objective(start) + 1.0);
    EXPECT_EQ(res.best.checkFits(timing()), "");
}

TEST(Annealer, DeterministicForSeed)
{
    AnnealParams params;
    params.iterations = 100;
    params.seed = 17;
    const auto objective = [](const CoreConfig &cfg) {
        return 1.0 / cfg.clockNs +
               static_cast<double>(cfg.iqSize) / 64.0;
    };
    Annealer a(space(), objective, params);
    Annealer b(space(), objective, params);
    const CoreConfig start = space().initialConfig();
    const AnnealResult ra = a.run(start);
    const AnnealResult rb = b.run(start);
    EXPECT_EQ(ra.bestScore, rb.bestScore);
    EXPECT_TRUE(ra.best.sameArch(rb.best));
    EXPECT_EQ(ra.evaluations, rb.evaluations);
}

TEST(Annealer, ImprovementTraceIsMonotone)
{
    AnnealParams params;
    params.iterations = 200;
    params.seed = 5;
    Annealer annealer(
        space(),
        [](const CoreConfig &cfg) {
            return static_cast<double>(cfg.robSize) + cfg.width;
        },
        params);
    const AnnealResult res = annealer.run(space().initialConfig());
    for (size_t i = 1; i < res.improvementTrace.size(); ++i) {
        EXPECT_GT(res.improvementTrace[i].second,
                  res.improvementTrace[i - 1].second);
        EXPECT_GE(res.improvementTrace[i].first,
                  res.improvementTrace[i - 1].first);
    }
}

TEST(Annealer, CountsEvaluations)
{
    AnnealParams params;
    params.iterations = 50;
    Annealer annealer(
        space(), [](const CoreConfig &) { return 1.0; }, params);
    const AnnealResult res = annealer.run(space().initialConfig());
    EXPECT_GE(res.evaluations, 2u);
    EXPECT_LE(res.evaluations, params.iterations + 1);
}

TEST(AnnealerDeathTest, RejectsBadSchedule)
{
    AnnealParams params;
    params.initialTemp = 0.01;
    params.finalTemp = 0.1; // final > initial
    EXPECT_EXIT(Annealer(space(),
                         [](const CoreConfig &) { return 1.0; },
                         params),
                testing::ExitedWithCode(1), "temperature");
}

TEST(AnnealerDeathTest, RejectsZeroIterations)
{
    AnnealParams params;
    params.iterations = 0;
    EXPECT_EXIT(Annealer(space(),
                         [](const CoreConfig &) { return 1.0; },
                         params),
                testing::ExitedWithCode(1), "zero iterations");
}

// --- Explorer (small end-to-end budgets) -----------------------------------

TEST(Explorer, ProducesLegalNamedConfigs)
{
    std::vector<WorkloadProfile> suite{profileByName("gzip"),
                                       profileByName("crafty")};
    ExplorerOptions opts;
    opts.evalInstrs = 8000;
    opts.saIters = 30;
    opts.rounds = 1;
    opts.threads = 2;
    Explorer explorer(suite, opts);
    const auto results = explorer.exploreAll();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].workload, "gzip");
    EXPECT_EQ(results[1].workload, "crafty");
    for (const auto &r : results) {
        EXPECT_EQ(r.best.name, r.workload);
        EXPECT_EQ(r.best.checkFits(timing()), "");
        EXPECT_GT(r.bestIpt, 0.0);
        EXPECT_GT(r.evaluations, 0u);
    }
}

TEST(Explorer, ImprovesOverInitialConfig)
{
    std::vector<WorkloadProfile> suite{profileByName("perl")};
    ExplorerOptions opts;
    opts.evalInstrs = 10000;
    opts.saIters = 60;
    opts.rounds = 1;
    opts.threads = 1;
    Explorer explorer(suite, opts);
    const double initial_ipt = Explorer::evaluate(
        profileByName("perl"), explorer.space().initialConfig(),
        opts.evalInstrs);
    const auto results = explorer.exploreAll();
    EXPECT_GE(results[0].bestIpt, initial_ipt);
}

TEST(Explorer, DeterministicForSeed)
{
    std::vector<WorkloadProfile> suite{profileByName("gap")};
    ExplorerOptions opts;
    opts.evalInstrs = 6000;
    opts.saIters = 25;
    opts.rounds = 1;
    opts.threads = 1;
    opts.seed = 42;
    const auto a = Explorer(suite, opts).exploreAll();
    const auto b = Explorer(suite, opts).exploreAll();
    EXPECT_TRUE(a[0].best.sameArch(b[0].best));
    EXPECT_EQ(a[0].bestIpt, b[0].bestIpt);
}

namespace
{

/** The explorer's final phase is Table 5: crossMatrix() must equal a
 *  separate build over the final configurations bit for bit, and its
 *  diagonal must be each workload's bestIpt. `simulated` receives the
 *  cells the exploration's matrix builds simulated: the one adoption
 *  phase's rows and the final phase. */
void
expectCrossMatrixIsTable5(int threads, uint64_t &simulated)
{
    const std::vector<WorkloadProfile> suite = {
        profileByName("gzip"), profileByName("mcf"),
        profileByName("twolf"), profileByName("crafty")};
    ExplorerOptions opts;
    opts.evalInstrs = 4000;
    opts.saIters = 24;
    opts.rounds = 2;
    opts.threads = threads;
    opts.seed = 10;
    opts.finalEvalInstrs = 8000;
    Explorer explorer(suite, opts);
    Counter &cells = Metrics::global().counter("perf_matrix.cells_computed");
    const uint64_t before = cells.get();
    const auto results = explorer.exploreAll();
    simulated = cells.get() - before;
    std::vector<CoreConfig> configs;
    for (const auto &r : results)
        configs.push_back(r.best);
    const PerfMatrix separate =
        PerfMatrix::build(suite, configs, opts.finalEvalInstrs, threads);

    const PerfMatrix &cross = explorer.crossMatrix();
    EXPECT_TRUE(explorer.degradedWorkloads().empty());
    ASSERT_EQ(cross.names(), separate.names());
    for (size_t w = 0; w < suite.size(); ++w) {
        EXPECT_EQ(std::bit_cast<uint64_t>(cross.ipt(w, w)),
                  std::bit_cast<uint64_t>(results[w].bestIpt))
            << suite[w].name;
        for (size_t c = 0; c < suite.size(); ++c)
            EXPECT_EQ(std::bit_cast<uint64_t>(cross.ipt(w, c)),
                      std::bit_cast<uint64_t>(separate.ipt(w, c)))
                << "cell (" << w << ", " << c << ")";
    }
}

} // namespace

TEST(ExplorerCrossMatrix, EqualsSeparateBuildOverFinalConfigs)
{
    for (int threads : {1, 2}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        uint64_t simulated = 0;
        expectCrossMatrixIsTable5(threads, simulated);
    }
}

TEST(ExplorerCrossMatrix, EqualsSeparateBuildWhenColumnsRepeat)
{
    // Two clusters over four workloads: the reduced-away workloads
    // enter the final phase on their representative's incumbent, so
    // pre-final columns repeat.
    ::setenv("XPS_REDUCE_WORKLOADS", "2", 1);
    uint64_t simulated = 0;
    expectCrossMatrixIsTable5(2, simulated);
    ::unsetenv("XPS_REDUCE_WORKLOADS");
    // One simulation per distinct column: the final phase's 4 rows on
    // at most 2 architectures, plus at most one cell per adoption row.
    EXPECT_LT(simulated, 4u * 4u);
}

TEST(ExplorerDeathTest, RejectsEmptySuite)
{
    EXPECT_EXIT(Explorer({}, ExplorerOptions{}),
                testing::ExitedWithCode(1), "empty");
}
