/**
 * @file
 * Unit tests for src/comm: the cross-configuration matrix, the three
 * figures of merit (hand-computed expectations), exhaustive
 * combination search, greedy surrogate assignment under all three
 * propagation policies (legality invariants), hierarchical
 * clustering/subsetting, and K-means.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "comm/combination.hh"
#include "comm/job_sim.hh"
#include "comm/kmeans.hh"
#include "comm/merit.hh"
#include "comm/perf_matrix.hh"
#include "comm/subsetting.hh"
#include "comm/surrogate.hh"

using namespace xps;

namespace
{

/**
 * A hand-crafted 4-workload matrix with a known structure:
 *   - every workload is fastest on its own configuration;
 *   - w0 and w1 are mutually good surrogates (5% off);
 *   - w2 is poor everywhere but its own (50% off elsewhere);
 *   - w3 is moderate on w0 (10% off), bad on w1/w2.
 */
PerfMatrix
toyMatrix()
{
    return PerfMatrix(
        {"a", "b", "c", "d"},
        {
            {2.00, 1.90, 1.00, 1.40},
            {1.90, 2.00, 1.00, 1.40},
            {0.50, 0.50, 1.00, 0.50},
            {2.70, 2.00, 1.50, 3.00},
        });
}

} // namespace

// --- PerfMatrix -------------------------------------------------------------

TEST(PerfMatrix, BasicAccessors)
{
    const PerfMatrix m = toyMatrix();
    EXPECT_EQ(m.size(), 4u);
    EXPECT_DOUBLE_EQ(m.ipt(0, 1), 1.90);
    EXPECT_DOUBLE_EQ(m.ownIpt(3), 3.00);
    EXPECT_EQ(m.index("c"), 2u);
}

TEST(PerfMatrix, SlowdownDefinition)
{
    const PerfMatrix m = toyMatrix();
    EXPECT_NEAR(m.slowdown(0, 1), 0.05, 1e-12);
    EXPECT_NEAR(m.slowdown(0, 0), 0.0, 1e-12);
    EXPECT_NEAR(m.slowdown(2, 0), 0.5, 1e-12);
}

TEST(PerfMatrix, BestConfigForSubset)
{
    const PerfMatrix m = toyMatrix();
    EXPECT_EQ(m.bestConfigFor(0, {1, 2, 3}), 1u);
    EXPECT_EQ(m.bestConfigFor(3, {1, 2}), 1u);
    EXPECT_EQ(m.bestConfigFor(2, {2}), 2u);
}

TEST(PerfMatrix, CsvRoundTrip)
{
    const PerfMatrix m = toyMatrix();
    std::vector<std::string> header{"workload"};
    for (const auto &n : m.names())
        header.push_back(n);
    PerfMatrix back;
    ASSERT_TRUE(PerfMatrix::fromCsv(header, m.toCsvRows(), back));
    EXPECT_EQ(back.size(), m.size());
    for (size_t w = 0; w < m.size(); ++w) {
        for (size_t c = 0; c < m.size(); ++c)
            EXPECT_NEAR(back.ipt(w, c), m.ipt(w, c), 1e-6);
    }
}

TEST(PerfMatrixDeathTest, RejectsNonSquare)
{
    EXPECT_EXIT(PerfMatrix({"a", "b"}, {{1.0}, {1.0, 2.0}}),
                testing::ExitedWithCode(1), "");
}

TEST(PerfMatrixDeathTest, UnknownNameIsFatal)
{
    const PerfMatrix m = toyMatrix();
    EXPECT_EXIT(m.index("zz"), testing::ExitedWithCode(1), "unknown");
}

// --- merit -------------------------------------------------------------------

TEST(Merit, Names)
{
    EXPECT_STREQ(meritName(Merit::Average), "avg");
    EXPECT_STREQ(meritName(Merit::Harmonic), "har");
    EXPECT_STREQ(meritName(Merit::ContentionWeightedHarmonic),
                 "cw-har");
}

TEST(Merit, AverageHandComputed)
{
    const PerfMatrix m = toyMatrix();
    // Columns {0}: every workload uses config 0.
    const MeritResult r =
        evaluateCombination(m, {0}, Merit::Average);
    EXPECT_NEAR(r.value, (2.0 + 1.9 + 0.5 + 2.7) / 4.0, 1e-12);
    for (size_t w = 0; w < 4; ++w)
        EXPECT_EQ(r.assignment[w], 0u);
}

TEST(Merit, HarmonicHandComputed)
{
    const PerfMatrix m = toyMatrix();
    const MeritResult r =
        evaluateCombination(m, {0}, Merit::Harmonic);
    const double expect =
        4.0 / (1.0 / 2.0 + 1.0 / 1.9 + 1.0 / 0.5 + 1.0 / 2.7);
    EXPECT_NEAR(r.value, expect, 1e-12);
}

TEST(Merit, AssignmentPicksBestColumn)
{
    const PerfMatrix m = toyMatrix();
    const MeritResult r =
        evaluateCombination(m, {0, 2}, Merit::Average);
    EXPECT_EQ(r.assignment[0], 0u);
    EXPECT_EQ(r.assignment[2], 2u);
    EXPECT_EQ(r.assignment[3], 0u);
}

TEST(Merit, ContentionDividesSharedCores)
{
    const PerfMatrix m = toyMatrix();
    // With only column 0 available, all four share it: each IPT is
    // divided by 4 before the harmonic mean.
    const MeritResult shared = evaluateCombination(
        m, {0}, Merit::ContentionWeightedHarmonic);
    const MeritResult plain =
        evaluateCombination(m, {0}, Merit::Harmonic);
    EXPECT_NEAR(shared.value, plain.value / 4.0, 1e-12);
}

TEST(Merit, ContentionRewardsSpreading)
{
    const PerfMatrix m = toyMatrix();
    const MeritResult two = evaluateCombination(
        m, {0, 2}, Merit::ContentionWeightedHarmonic);
    const MeritResult one = evaluateCombination(
        m, {0}, Merit::ContentionWeightedHarmonic);
    EXPECT_GT(two.value, one.value);
}

TEST(Merit, WeightsShiftTheAverage)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<double> weights{0.0, 0.0, 1.0, 0.0};
    const MeritResult r =
        evaluateCombination(m, {0}, Merit::Average, &weights);
    EXPECT_NEAR(r.value, 0.5, 1e-12); // only workload c counts
}

TEST(Merit, ZeroWeightWorkloadIgnoredByHarmonic)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<double> weights{1.0, 1.0, 0.0, 1.0};
    const MeritResult with = evaluateCombination(
        m, {0}, Merit::Harmonic, &weights);
    const double expect =
        3.0 / (1.0 / 2.0 + 1.0 / 1.9 + 1.0 / 2.7);
    EXPECT_NEAR(with.value, expect, 1e-12);
}

TEST(MeritDeathTest, EmptyCombination)
{
    const PerfMatrix m = toyMatrix();
    EXPECT_EXIT(evaluateCombination(m, {}, Merit::Average),
                testing::ExitedWithCode(1), "empty");
}

// --- combination -------------------------------------------------------------

TEST(Combination, KSubsetsCounts)
{
    EXPECT_EQ(kSubsets(5, 2).size(), 10u);
    EXPECT_EQ(kSubsets(11, 4).size(), 330u);
    EXPECT_EQ(kSubsets(4, 4).size(), 1u);
    EXPECT_TRUE(kSubsets(3, 0).empty());
    EXPECT_TRUE(kSubsets(3, 4).empty());
}

TEST(Combination, KSubsetsAreDistinctAndSorted)
{
    const auto subsets = kSubsets(6, 3);
    std::set<std::vector<size_t>> unique(subsets.begin(),
                                         subsets.end());
    EXPECT_EQ(unique.size(), subsets.size());
    for (const auto &s : subsets)
        EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(Combination, BestSingleCoreIsOptimal)
{
    const PerfMatrix m = toyMatrix();
    const auto best = bestCombination(m, 1, Merit::Average);
    // Exhaustively verify optimality.
    for (size_t c = 0; c < m.size(); ++c) {
        const auto r = evaluateCombination(m, {c}, Merit::Average);
        EXPECT_LE(r.value, best.merit.value + 1e-12);
    }
}

TEST(Combination, PairBeatsSingle)
{
    const PerfMatrix m = toyMatrix();
    const auto one = bestCombination(m, 1, Merit::Harmonic);
    const auto two = bestCombination(m, 2, Merit::Harmonic);
    EXPECT_GE(two.merit.value, one.merit.value);
    // c is so bad elsewhere that it must be one of the two.
    EXPECT_TRUE(two.columns[0] == 2 || two.columns[1] == 2);
}

TEST(Combination, FullSetEqualsIdeal)
{
    const PerfMatrix m = toyMatrix();
    const auto all = bestCombination(m, 4, Merit::Harmonic);
    for (size_t w = 0; w < 4; ++w)
        EXPECT_NEAR(all.merit.perWorkloadIpt[w], m.ownIpt(w), 1e-12);
}

TEST(Combination, RestrictedCandidatesHonoured)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<size_t> pool{1, 3};
    const auto best =
        bestCombination(m, 1, Merit::Average, &pool);
    EXPECT_TRUE(best.columns[0] == 1 || best.columns[0] == 3);
}

TEST(CombinationDeathTest, BadK)
{
    const PerfMatrix m = toyMatrix();
    EXPECT_EXIT(bestCombination(m, 0, Merit::Average),
                testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(bestCombination(m, 9, Merit::Average),
                testing::ExitedWithCode(1), "out of range");
}

// --- surrogate -----------------------------------------------------------------

TEST(Surrogate, FirstEdgeIsGloballyCheapest)
{
    const PerfMatrix m = toyMatrix();
    for (Propagation p : {Propagation::None, Propagation::Forward,
                          Propagation::Full}) {
        const SurrogateGraph g = greedySurrogates(m, p);
        ASSERT_FALSE(g.edges.empty());
        // Cheapest off-diagonal slowdown is a<-b or b<-a at 5%.
        EXPECT_NEAR(g.edges.front().slowdown, 0.05, 1e-12);
        EXPECT_EQ(g.edges.front().order, 1);
    }
}

TEST(Surrogate, NonePolicyInvariants)
{
    const PerfMatrix m = toyMatrix();
    const SurrogateGraph g = greedySurrogates(m, Propagation::None);
    std::set<size_t> providers, assigned;
    for (const auto &e : g.edges) {
        providers.insert(e.surrogate);
        assigned.insert(e.benchmark);
    }
    // No propagation: no workload is both provider and assigned.
    for (size_t p : providers)
        EXPECT_EQ(assigned.count(p), 0u);
    // No benchmark assigned twice.
    EXPECT_EQ(assigned.size(), g.edges.size());
    // No feedback possible.
    for (const auto &e : g.edges)
        EXPECT_FALSE(e.feedback);
}

TEST(Surrogate, ForwardPolicyForbidsBackward)
{
    const PerfMatrix m = toyMatrix();
    const SurrogateGraph g =
        greedySurrogates(m, Propagation::Forward);
    // Backward propagation forbidden: a surrogate provider must not
    // have been assigned at the time it provides. Since assignments
    // only add, a provider must never appear earlier as a benchmark.
    std::set<size_t> assigned;
    for (const auto &e : g.edges) {
        EXPECT_EQ(assigned.count(e.surrogate), 0u)
            << "edge order " << e.order;
        assigned.insert(e.benchmark);
    }
}

TEST(Surrogate, FullPolicyAssignsEveryone)
{
    const PerfMatrix m = toyMatrix();
    const SurrogateGraph g = greedySurrogates(m, Propagation::Full);
    // Every workload receives a surrogate; feedback cycles terminate
    // the reduction with at least one root left.
    EXPECT_EQ(g.edges.size(), m.size());
    EXPECT_GE(g.roots.size(), 1u);
    bool any_feedback = false;
    for (const auto &e : g.edges)
        any_feedback |= e.feedback;
    EXPECT_TRUE(any_feedback);
}

TEST(Surrogate, ResolvedArchsAreRoots)
{
    const PerfMatrix m = toyMatrix();
    for (Propagation p : {Propagation::None, Propagation::Forward,
                          Propagation::Full}) {
        const SurrogateGraph g = greedySurrogates(m, p);
        ASSERT_EQ(g.resolved.size(), m.size());
        for (size_t w = 0; w < m.size(); ++w) {
            EXPECT_NE(std::find(g.roots.begin(), g.roots.end(),
                                g.resolved[w]),
                      g.roots.end());
        }
    }
}

TEST(Surrogate, MetricsMatchResolution)
{
    const PerfMatrix m = toyMatrix();
    const SurrogateGraph g = greedySurrogates(m, Propagation::None);
    std::vector<double> ipts;
    for (size_t w = 0; w < m.size(); ++w)
        ipts.push_back(m.ipt(w, g.resolved[w]));
    double inv = 0.0;
    for (double x : ipts)
        inv += 1.0 / x;
    EXPECT_NEAR(g.harmonicIpt, ipts.size() / inv, 1e-12);
    EXPECT_GE(g.avgSlowdown, 0.0);
}

TEST(Surrogate, StopAtRootsLimitsReduction)
{
    const PerfMatrix m = toyMatrix();
    const SurrogateGraph g =
        greedySurrogates(m, Propagation::Full, /*stop_at_roots=*/3);
    EXPECT_GE(g.roots.size(), 3u);
}

TEST(Surrogate, RenderMentionsAllRoots)
{
    const PerfMatrix m = toyMatrix();
    const SurrogateGraph g = greedySurrogates(m, Propagation::Full);
    const std::string out = g.render(m);
    for (size_t root : g.roots)
        EXPECT_NE(out.find("arch(" + m.names()[root] + ")"),
                  std::string::npos);
}

TEST(Surrogate, PolicyNames)
{
    EXPECT_STREQ(propagationName(Propagation::None), "none");
    EXPECT_STREQ(propagationName(Propagation::Forward), "forward");
    EXPECT_STREQ(propagationName(Propagation::Full), "full");
}

// --- subsetting ------------------------------------------------------------------

TEST(Dendrogram, MergesAllPoints)
{
    const std::vector<std::vector<double>> pts{
        {0, 0}, {0.1, 0}, {5, 5}, {5.1, 5}, {10, 0}};
    const auto d = Dendrogram::build(
        pts, {"a", "b", "c", "d", "e"});
    EXPECT_EQ(d.merges().size(), pts.size() - 1);
    // Merge distances are non-decreasing under average linkage on
    // well-separated clusters.
    EXPECT_LE(d.merges().front().dist, d.merges().back().dist);
}

TEST(Dendrogram, CutRecoversObviousClusters)
{
    const std::vector<std::vector<double>> pts{
        {0, 0}, {0.1, 0}, {5, 5}, {5.1, 5}, {10, 0}};
    const auto d =
        Dendrogram::build(pts, {"a", "b", "c", "d", "e"});
    const auto clusters = d.cut(3);
    ASSERT_EQ(clusters.size(), 3u);
    // Find the cluster containing point 0; it must contain point 1.
    for (const auto &cluster : clusters) {
        const bool has0 = std::count(cluster.begin(), cluster.end(),
                                     size_t{0}) > 0;
        const bool has1 = std::count(cluster.begin(), cluster.end(),
                                     size_t{1}) > 0;
        EXPECT_EQ(has0, has1);
    }
}

TEST(Dendrogram, CutExtremes)
{
    const std::vector<std::vector<double>> pts{{0}, {1}, {4}};
    const auto d = Dendrogram::build(pts, {"a", "b", "c"});
    EXPECT_EQ(d.cut(1).size(), 1u);
    EXPECT_EQ(d.cut(3).size(), 3u);
}

TEST(Dendrogram, RenderListsMerges)
{
    const std::vector<std::vector<double>> pts{{0}, {1}, {4}};
    const auto d = Dendrogram::build(pts, {"a", "b", "c"});
    const std::string out = d.render();
    EXPECT_NE(out.find("{a, b}"), std::string::npos);
}

TEST(Subsetting, MedoidMinimizesSummedDistance)
{
    const std::vector<std::vector<double>> pts{
        {0, 0}, {1, 0}, {2, 0}};
    EXPECT_EQ(medoidOf(pts, {0, 1, 2}), 1u);
    EXPECT_EQ(medoidOf(pts, {0}), 0u);
}

TEST(Subsetting, RepresentativesAreOnePerCluster)
{
    const std::vector<std::vector<double>> pts{
        {0, 0}, {0.1, 0}, {5, 5}, {5.1, 5}, {10, 0}};
    const auto reps = selectRepresentatives(pts, 3);
    EXPECT_EQ(reps.size(), 3u);
    std::set<size_t> unique(reps.begin(), reps.end());
    EXPECT_EQ(unique.size(), 3u);
}

// --- kmeans ---------------------------------------------------------------------

TEST(KMeans, RecoversSeparatedClusters)
{
    std::vector<std::vector<double>> pts;
    for (int i = 0; i < 10; ++i)
        pts.push_back({0.0 + 0.01 * i, 0.0});
    for (int i = 0; i < 10; ++i)
        pts.push_back({10.0 + 0.01 * i, 10.0});
    Rng rng(31);
    const KMeansResult r = kMeans(pts, 2, rng);
    for (int i = 1; i < 10; ++i)
        EXPECT_EQ(r.assignment[static_cast<size_t>(i)],
                  r.assignment[0]);
    for (int i = 11; i < 20; ++i)
        EXPECT_EQ(r.assignment[static_cast<size_t>(i)],
                  r.assignment[10]);
    EXPECT_NE(r.assignment[0], r.assignment[10]);
    EXPECT_LT(r.inertia, 1.0);
}

TEST(KMeans, KEqualsNIsPerfect)
{
    const std::vector<std::vector<double>> pts{{0.0}, {5.0}, {9.0}};
    Rng rng(32);
    const KMeansResult r = kMeans(pts, 3, rng);
    EXPECT_NEAR(r.inertia, 0.0, 1e-12);
}

TEST(KMeansDeathTest, BadK)
{
    Rng rng(33);
    const std::vector<std::vector<double>> pts{{0.0}};
    EXPECT_EXIT(kMeans(pts, 2, rng), testing::ExitedWithCode(1),
                "out of range");
}

TEST(KMeans, ConfigFeatureVectorDimensions)
{
    const auto v = configFeatureVector(CoreConfig::initial());
    EXPECT_EQ(v.size(), 11u);
}

TEST(KMeans, CompromiseReturnsMemberIndices)
{
    std::vector<CoreConfig> configs;
    for (int i = 0; i < 4; ++i) {
        CoreConfig cfg = CoreConfig::initial();
        cfg.robSize = 64u << i;
        cfg.clockNs = 0.2 + 0.05 * i;
        configs.push_back(cfg);
    }
    const auto out = kMeansCompromise(configs, 2, 7);
    ASSERT_EQ(out.size(), configs.size());
    for (size_t idx : out)
        EXPECT_LT(idx, configs.size());
    std::set<size_t> distinct(out.begin(), out.end());
    EXPECT_LE(distinct.size(), 2u);
}

// --- job stream simulation (the §5.5 extension) -----------------------------

TEST(JobSim, BindWorkloadsPicksBestCore)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<size_t> cores{0, 2};
    const auto binding = bindWorkloadsToCores(m, cores);
    EXPECT_EQ(binding[0], 0u); // a best on arch(a)
    EXPECT_EQ(binding[2], 1u); // c best on arch(c)
    EXPECT_EQ(binding[3], 0u); // d better on arch(a) than arch(c)
}

TEST(JobSim, LightLoadTurnaroundApproachesService)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<size_t> cores{0, 1, 2, 3};
    JobStreamConfig cfg;
    cfg.meanInterarrivalNs = 1e9; // essentially no contention
    cfg.jobs = 200;
    cfg.jobInstrs = 1000;
    const auto binding = bindWorkloadsToCores(m, cores);
    const auto r = simulateJobStream(
        m, cores, binding, DispatchPolicy::StallForAssigned, cfg);
    EXPECT_NEAR(r.avgTurnaroundNs, r.avgServiceNs,
                1e-6 * r.avgServiceNs + 1e-9);
    EXPECT_NEAR(r.avgWaitNs, 0.0, 1e-9);
}

TEST(JobSim, HeavyLoadQueuesUp)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<size_t> cores{0};
    JobStreamConfig cfg;
    cfg.meanInterarrivalNs = 10.0; // far beyond one core's capacity
    cfg.jobs = 500;
    cfg.jobInstrs = 10000;
    const std::vector<size_t> binding(m.size(), 0);
    const auto r = simulateJobStream(
        m, cores, binding, DispatchPolicy::StallForAssigned, cfg);
    EXPECT_GT(r.avgWaitNs, r.avgServiceNs);
    EXPECT_GT(r.coreUtilization, 0.9);
}

TEST(JobSim, DynamicDispatchNeverWorseUnderUniformCores)
{
    // With two identical cores, dynamic dispatch equals bound
    // dispatch only when binding balances; dynamic must not be worse.
    const PerfMatrix m = toyMatrix();
    const std::vector<size_t> cores{0, 0};
    JobStreamConfig cfg;
    cfg.meanInterarrivalNs = 3000.0;
    cfg.jobs = 2000;
    cfg.jobInstrs = 10000;
    std::vector<size_t> skewed(m.size(), 0); // all bound to core 0
    const auto bound = simulateJobStream(
        m, cores, skewed, DispatchPolicy::StallForAssigned, cfg);
    const auto dynamic = simulateJobStream(
        m, cores, {}, DispatchPolicy::BestAvailable, cfg);
    EXPECT_LE(dynamic.avgTurnaroundNs, bound.avgTurnaroundNs * 1.001);
}

TEST(JobSim, BurstinessIncreasesWaiting)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<size_t> cores{0, 2};
    const auto binding = bindWorkloadsToCores(m, cores);
    JobStreamConfig calm;
    calm.meanInterarrivalNs = 6000.0;
    calm.jobs = 3000;
    calm.jobInstrs = 10000;
    JobStreamConfig bursty = calm;
    bursty.burstiness = 8.0;
    const auto r_calm = simulateJobStream(
        m, cores, binding, DispatchPolicy::StallForAssigned, calm);
    const auto r_bursty = simulateJobStream(
        m, cores, binding, DispatchPolicy::StallForAssigned, bursty);
    EXPECT_GT(r_bursty.avgWaitNs, r_calm.avgWaitNs);
}

TEST(JobSim, MixWeightsSkewWorkloadDraw)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<size_t> cores{2};
    JobStreamConfig cfg;
    cfg.meanInterarrivalNs = 1e9;
    cfg.jobs = 500;
    cfg.jobInstrs = 1000;
    cfg.mixWeights = {0.0, 0.0, 1.0, 0.0}; // only workload c arrives
    const std::vector<size_t> binding(m.size(), 0);
    const auto r = simulateJobStream(
        m, cores, binding, DispatchPolicy::StallForAssigned, cfg);
    // c on its own arch: 1000 instrs at IPT 1.0 = 1000ns each.
    EXPECT_NEAR(r.avgServiceNs, 1000.0, 1e-6);
}

TEST(JobSim, DeterministicForSeed)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<size_t> cores{0, 2};
    JobStreamConfig cfg;
    cfg.meanInterarrivalNs = 4000.0;
    cfg.jobs = 1000;
    cfg.jobInstrs = 5000;
    const auto a = simulateJobStream(
        m, cores, {}, DispatchPolicy::BestAvailable, cfg);
    const auto b = simulateJobStream(
        m, cores, {}, DispatchPolicy::BestAvailable, cfg);
    EXPECT_EQ(a.avgTurnaroundNs, b.avgTurnaroundNs);
    EXPECT_EQ(a.makespanNs, b.makespanNs);
}

TEST(JobSimDeathTest, RejectsBadParameters)
{
    const PerfMatrix m = toyMatrix();
    JobStreamConfig cfg;
    cfg.jobs = 0;
    EXPECT_EXIT(simulateJobStream(m, {0}, {0, 0, 0, 0},
                                  DispatchPolicy::StallForAssigned,
                                  cfg),
                testing::ExitedWithCode(1), "bad stream");
    JobStreamConfig cfg2;
    EXPECT_EXIT(simulateJobStream(m, {}, {},
                                  DispatchPolicy::BestAvailable, cfg2),
                testing::ExitedWithCode(1), "no cores");
}

TEST(JobSim, PolicyNames)
{
    EXPECT_STREQ(dispatchPolicyName(DispatchPolicy::StallForAssigned),
                 "stall-for-assigned");
    EXPECT_STREQ(dispatchPolicyName(DispatchPolicy::BestAvailable),
                 "best-available");
}

TEST(JobSim, BalancedBindingSpreadsLoad)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<size_t> cores{0, 1};
    // Naive binding sends a, b and d all to arch(a); balanced must
    // use both cores.
    const auto naive = bindWorkloadsToCores(m, cores);
    std::set<size_t> naive_used(naive.begin(), naive.end());
    const auto balanced = bindWorkloadsBalanced(m, cores);
    std::set<size_t> bal_used(balanced.begin(), balanced.end());
    EXPECT_EQ(bal_used.size(), 2u);
    EXPECT_GE(bal_used.size(), naive_used.size());
}

TEST(JobSim, BalancedBindingHonoursWeights)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<size_t> cores{0, 1};
    // With all mass on workload c, the other workloads' placement
    // must not matter for balance; c goes wherever it is fastest
    // among the two (equal here), and no core gets everything.
    const std::vector<double> weights{1.0, 1.0, 100.0, 1.0};
    const auto balanced = bindWorkloadsBalanced(m, cores, weights);
    ASSERT_EQ(balanced.size(), m.size());
    for (size_t k : balanced)
        EXPECT_LT(k, cores.size());
}

TEST(JobSim, BalancedBindingReducesHeavyLoadTurnaround)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<size_t> cores{0, 1};
    JobStreamConfig cfg;
    cfg.meanInterarrivalNs = 900.0; // near saturation
    cfg.jobs = 3000;
    cfg.jobInstrs = 3000;
    const auto naive = simulateJobStream(
        m, cores, bindWorkloadsToCores(m, cores),
        DispatchPolicy::StallForAssigned, cfg);
    const auto balanced = simulateJobStream(
        m, cores, bindWorkloadsBalanced(m, cores),
        DispatchPolicy::StallForAssigned, cfg);
    EXPECT_LT(balanced.avgTurnaroundNs, naive.avgTurnaroundNs);
}

TEST(JobSimDeathTest, BalancedBindingRejectsBadWeights)
{
    const PerfMatrix m = toyMatrix();
    const std::vector<double> weights{1.0};
    EXPECT_EXIT(bindWorkloadsBalanced(m, {0}, weights),
                testing::ExitedWithCode(1), "weight count");
}
