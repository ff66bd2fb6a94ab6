/**
 * @file
 * The surrogate-screening battery (DESIGN.md §12, `ctest -L
 * surrogate`): proof that the ridge-regression predictor can only
 * ever *skip* work, never corrupt a result.
 *
 *  - predictor unit properties: deterministic updates, exact
 *    serialize/parse round trips, the armed/confident veto gate, and
 *    calibration bookkeeping;
 *  - the screening-only invariant at the annealer protocol level: a
 *    vetoed proposal's (possibly wildly wrong) predicted score is
 *    never trusted, and a correct veto leaves the walk bit-identical
 *    to the unscreened chain (veto-burns-roll);
 *  - checkpoint format: the optional `surrogate` model line round
 *    trips through both workload and suite checkpoints;
 *  - explorer integration: XPS_SURROGATE=1 runs checkpoint/resume
 *    bit-identically (including fork-and-kill mid-run), and the flag
 *    is part of the checkpoint identity;
 *  - XPS_REDUCE_WORKLOADS: the kmeans workload->representative map is
 *    seed-stable and pinned against the 11 golden workloads, reduced
 *    runs propagate the representative's configuration, and reduced
 *    runs kill/resume bit-identically.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "explore/annealer.hh"
#include "explore/checkpoint.hh"
#include "explore/explorer.hh"
#include "explore/predictor.hh"
#include "explore/search_space.hh"
#include "util/kmeans.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "workload/characteristics.hh"
#include "workload/profile.hh"

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

const Characteristics &
gzipChars()
{
    static const Characteristics c =
        measureCharacteristics(profileByName("gzip"), 20000);
    return c;
}

/** A seeded random walk of distinct configurations — the kind of
 *  point set an annealing round feeds the model. */
std::vector<CoreConfig>
walkConfigs(size_t count, uint64_t seed)
{
    std::vector<CoreConfig> configs{space().initialConfig()};
    Rng rng(seed);
    while (configs.size() < count) {
        CoreConfig cand;
        if (space().neighbor(configs.back(), rng, cand))
            configs.push_back(cand);
    }
    return configs;
}

/** A synthetic objective that is exactly linear in the model's
 *  feature embedding: the one function RLS must learn to
 *  interpolation accuracy. */
double
linearTarget(const CoreConfig &cfg)
{
    const std::vector<double> phi =
        IpcPredictor::features(cfg, gzipChars());
    double y = 0.0;
    for (size_t i = 0; i < phi.size(); ++i)
        y += 0.01 * static_cast<double>(i + 1) * phi[i];
    return y;
}

IpcPredictor
trainedOnWalk(size_t count, uint64_t seed,
              PredictorOptions opts = PredictorOptions{})
{
    IpcPredictor pred(opts);
    for (const CoreConfig &cfg : walkConfigs(count, seed))
        pred.observe(IpcPredictor::features(cfg, gzipChars()),
                     linearTarget(cfg));
    return pred;
}

std::string
freshDir(const std::string &tag)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("xps_surr_" + tag + "_" +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** setenv/unsetenv RAII: restores the previous value on scope exit,
 *  so env-driven tests cannot leak state into each other. */
struct ScopedEnv
{
    std::string key;
    bool had;
    std::string old;
    ScopedEnv(const char *k, const char *v) : key(k)
    {
        const char *o = ::getenv(k);
        had = o != nullptr;
        if (o)
            old = o;
        ::setenv(k, v, 1);
    }
    ~ScopedEnv()
    {
        if (had)
            ::setenv(key.c_str(), old.c_str(), 1);
        else
            ::unsetenv(key.c_str());
    }
};

} // namespace

// --- predictor unit properties ---------------------------------------------

TEST(Predictor, FeatureEmbeddingMatchesDimension)
{
    const std::vector<double> phi =
        IpcPredictor::features(space().initialConfig(), gzipChars());
    ASSERT_EQ(phi.size(), IpcPredictor::kDim);
    EXPECT_EQ(phi[0], 1.0); // bias
    for (double v : phi)
        EXPECT_TRUE(std::isfinite(v)) << v;
}

TEST(Predictor, UpdatesAreDeterministic)
{
    // Two models fed the identical observation stream must end in
    // bit-identical state: screening decisions on resume depend on it.
    const IpcPredictor a = trainedOnWalk(40, 7);
    const IpcPredictor b = trainedOnWalk(40, 7);
    EXPECT_EQ(a.serialize(), b.serialize());
    const std::vector<double> probe = IpcPredictor::features(
        walkConfigs(50, 7).back(), gzipChars());
    EXPECT_EQ(a.predict(probe), b.predict(probe));
    EXPECT_EQ(a.uncertainty(probe), b.uncertainty(probe));

    // A different stream ends elsewhere (the test has teeth).
    const IpcPredictor c = trainedOnWalk(40, 8);
    EXPECT_NE(a.serialize(), c.serialize());
}

TEST(Predictor, SerializeParseRoundTripsExactly)
{
    for (size_t n : {size_t{0}, size_t{3}, size_t{60}}) {
        const IpcPredictor ref =
            n == 0 ? IpcPredictor() : trainedOnWalk(n, 11 + n);
        IpcPredictor back;
        ASSERT_TRUE(IpcPredictor::parse(ref.serialize(), back))
            << "n=" << n;
        EXPECT_EQ(back.serialize(), ref.serialize());
        EXPECT_EQ(back.armed(), ref.armed());
        const std::vector<double> probe = IpcPredictor::features(
            space().initialConfig(), gzipChars());
        EXPECT_EQ(back.predict(probe), ref.predict(probe));
        EXPECT_EQ(back.uncertainty(probe), ref.uncertainty(probe));
        const IpcPredictor::Calibration ca = ref.calibration();
        const IpcPredictor::Calibration cb = back.calibration();
        EXPECT_EQ(cb.samples, ca.samples);
        EXPECT_EQ(cb.p50, ca.p50);
        EXPECT_EQ(cb.max, ca.max);
    }
}

TEST(Predictor, ParseRejectsMalformedStateUntouched)
{
    const IpcPredictor trained = trainedOnWalk(30, 13);
    const std::string good = trained.serialize();
    IpcPredictor out = trainedOnWalk(5, 99);
    const std::string before = out.serialize();
    for (const std::string &bad :
         {std::string(""), std::string("garbage"),
          std::string("ipcpred1"), good.substr(0, good.size() / 2),
          good + " 42", std::string("ipcpred2") + good.substr(8)}) {
        EXPECT_FALSE(IpcPredictor::parse(bad, out)) << bad;
        EXPECT_EQ(out.serialize(), before)
            << "failed parse mutated the model";
    }
    EXPECT_TRUE(IpcPredictor::parse(good, out));
    EXPECT_EQ(out.serialize(), good);
}

TEST(Predictor, UnarmedModelNeverVetoes)
{
    PredictorOptions opts;
    opts.minObservations = 24;
    IpcPredictor pred(opts);
    const std::vector<CoreConfig> walk = walkConfigs(24, 17);
    // Even a prediction of "worthless" must not veto before the
    // model has minObservations updates under its belt.
    const std::vector<double> probe =
        IpcPredictor::features(walk.back(), gzipChars());
    for (size_t i = 0; i + 1 < walk.size(); ++i) {
        EXPECT_FALSE(pred.armed());
        EXPECT_FALSE(pred.confidentlyBelow(probe, 1e9, 0.005));
        pred.observe(IpcPredictor::features(walk[i], gzipChars()),
                     linearTarget(walk[i]));
    }
    pred.observe(IpcPredictor::features(walk.back(), gzipChars()),
                 linearTarget(walk.back()));
    EXPECT_TRUE(pred.armed());
    EXPECT_TRUE(pred.confidentlyBelow(probe, 1e9, 0.005));
}

TEST(Predictor, VetoRequiresConfidentMarginBelowReference)
{
    // On exactly-linear data the trained model is near-certain, so
    // the veto gate reduces to the margin arithmetic.
    const IpcPredictor pred = trainedOnWalk(120, 19);
    const CoreConfig probeCfg = walkConfigs(121, 19).back();
    const std::vector<double> phi =
        IpcPredictor::features(probeCfg, gzipChars());
    const double y = linearTarget(probeCfg);
    // The ridge prior biases weights slightly; interpolation is tight
    // but not exact.
    EXPECT_NEAR(pred.predict(phi), y, std::abs(y) * 1e-3);

    const double temp = 0.005; // default vetoMargin 10 -> thr 0.95*ref
    // Reference far above the candidate: confident veto.
    EXPECT_TRUE(pred.confidentlyBelow(phi, y * 4.0, temp));
    // Reference at the candidate's own level: no veto.
    EXPECT_FALSE(pred.confidentlyBelow(phi, y, temp));
    // Reference slightly above, but within the margin: no veto.
    EXPECT_FALSE(pred.confidentlyBelow(phi, y * 1.02, temp));
    // Degenerate thresholds can never veto.
    EXPECT_FALSE(pred.confidentlyBelow(phi, 0.0, temp));
    EXPECT_FALSE(pred.confidentlyBelow(phi, -1.0, temp));
    EXPECT_FALSE(pred.confidentlyBelow(phi, y * 4.0, 1.0)); // thr<=0
}

TEST(Predictor, CalibrationQuantilesAreOrderedAndBounded)
{
    const IpcPredictor pred = trainedOnWalk(120, 23);
    const IpcPredictor::Calibration cal = pred.calibration();
    ASSERT_GT(cal.samples, 0u);
    EXPECT_LE(cal.p50, cal.p90);
    EXPECT_LE(cal.p90, cal.p99);
    EXPECT_GE(cal.p99, cal.max * 0.0); // p99 is a bucket upper bound
    EXPECT_GE(cal.max, 0.0);
    // Exactly-linear data: once armed, prediction errors are tiny.
    EXPECT_LT(cal.p50, 1e-3);
}

// --- annealer protocol: screening can only skip, never corrupt -------------

namespace
{

/** The checkpoint battery's analytic objective: deterministic, cheap,
 *  and swingy enough (the clock term) that downhill proposals fail
 *  the Metropolis bar by orders of magnitude at low temperature. */
double
analyticObjective(const CoreConfig &cfg)
{
    return 1.0 / cfg.clockNs +
           std::log2(static_cast<double>(cfg.robSize)) / 8.0 +
           static_cast<double>(cfg.iqSize) / 256.0;
}

AnnealParams
coldParams(uint64_t seed)
{
    AnnealParams params;
    params.iterations = 80;
    params.seed = seed;
    // Cold walk: 40*temp stays well under the clock term's relative
    // swing, so the oracle veto below fires on real proposals.
    params.initialTemp = 0.002;
    params.finalTemp = 0.0005;
    return params;
}

void
expectAnnealIdentical(const AnnealResult &a, const AnnealResult &b)
{
    EXPECT_EQ(a.bestScore, b.bestScore); // bit-identical
    EXPECT_TRUE(a.best.sameArch(b.best))
        << a.best.summary() << " vs " << b.best.summary();
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.improvementTrace, b.improvementTrace);
}

} // namespace

TEST(SurrogateProtocol, NeverVetoingFrontierMatchesScalarChain)
{
    // Width-1 frontier with every proposal trusted == the scalar
    // walk, bit for bit (the RNG draw/roll order coincides at 1).
    for (uint64_t seed : {3u, 11u, 99u}) {
        const AnnealResult golden =
            Annealer(space(), analyticObjective, coldParams(seed))
                .run(space().initialConfig());
        Annealer screened(space(), analyticObjective,
                          coldParams(seed));
        screened.setFrontier(
            [](const std::vector<CoreConfig> &cands,
               const FrontierContext &, std::vector<double> &scores,
               std::vector<uint8_t> &full) {
                scores.clear();
                full.clear();
                for (const CoreConfig &c : cands) {
                    scores.push_back(analyticObjective(c));
                    full.push_back(kScreenFull);
                }
            },
            1);
        expectAnnealIdentical(
            screened.run(space().initialConfig()), golden);
    }
}

TEST(SurrogateProtocol, CorrectVetoPreservesTrajectoryBitIdentically)
{
    // Veto-burns-roll: vetoing a proposal the Metropolis rule was
    // (all but) certain to reject — acceptance probability below
    // exp(-40) — and burning its acceptance roll must leave the walk
    // bit-identical to the unscreened chain. The veto reports a
    // *wildly wrong* score on purpose: a trusted leak of it anywhere
    // would corrupt bestScore and fail the comparison.
    for (uint64_t seed : {3u, 11u, 99u}) {
        const AnnealResult golden =
            Annealer(space(), analyticObjective, coldParams(seed))
                .run(space().initialConfig());
        uint64_t vetoes = 0;
        Annealer screened(space(), analyticObjective,
                          coldParams(seed));
        screened.setFrontier(
            [&](const std::vector<CoreConfig> &cands,
                const FrontierContext &ctx,
                std::vector<double> &scores,
                std::vector<uint8_t> &full) {
                scores.clear();
                full.clear();
                for (const CoreConfig &c : cands) {
                    const double s = analyticObjective(c);
                    if (s < ctx.currentScore *
                                (1.0 - 40.0 * ctx.temp)) {
                        scores.push_back(1e300); // must never leak
                        full.push_back(kScreenVeto);
                        ++vetoes;
                    } else {
                        scores.push_back(s);
                        full.push_back(kScreenFull);
                    }
                }
            },
            1);
        const AnnealResult res =
            screened.run(space().initialConfig());
        EXPECT_GT(vetoes, 0u) << "oracle never fired; vacuous test";
        EXPECT_LT(res.bestScore, 1e300);
        // The walk itself is bit-identical...
        EXPECT_EQ(res.bestScore, golden.bestScore);
        EXPECT_TRUE(res.best.sameArch(golden.best))
            << res.best.summary() << " vs " << golden.best.summary();
        EXPECT_EQ(res.accepted, golden.accepted);
        EXPECT_EQ(res.improvementTrace, golden.improvementTrace);
        // ...and the only difference is the work skipped: every veto
        // is exactly one evaluation the unscreened chain paid for.
        EXPECT_EQ(res.evaluations + vetoes, golden.evaluations);
    }
}

TEST(SurrogateProtocol, VetoedScoreIsNeverAdopted)
{
    // Adversarial surrogate: veto half the proposals with an absurdly
    // *high* predicted score. If the annealer ever trusted a vetoed
    // score, it would adopt the phantom; instead the result must
    // still satisfy bestScore == objective(best) exactly.
    uint64_t k = 0;
    Annealer screened(space(), analyticObjective, coldParams(5));
    screened.setFrontier(
        [&](const std::vector<CoreConfig> &cands,
            const FrontierContext &, std::vector<double> &scores,
            std::vector<uint8_t> &full) {
            scores.clear();
            full.clear();
            for (const CoreConfig &c : cands) {
                if (k++ % 2 == 0) {
                    scores.push_back(1e9);
                    full.push_back(kScreenVeto);
                } else {
                    scores.push_back(analyticObjective(c));
                    full.push_back(kScreenFull);
                }
            }
        },
        4);
    const AnnealResult res = screened.run(space().initialConfig());
    EXPECT_LT(res.bestScore, 1e9);
    EXPECT_EQ(res.bestScore, analyticObjective(res.best));
}

// --- checkpoint format: the surrogate model line ---------------------------

namespace
{

CsvManifest
testIdentity()
{
    CsvManifest m;
    m.set("kind", std::string("srgt-test")); // no "surrogate" substring

    m.set("budget", uint64_t{777});
    return m;
}

} // namespace

TEST(SurrogateCheckpoint, WorkloadRoundTripCarriesModel)
{
    WorkloadCheckpoint ckpt;
    ckpt.anneal.current = space().initialConfig();
    ckpt.anneal.result.best = space().initialConfig();
    ckpt.surrogate = trainedOnWalk(30, 31).serialize();

    const std::string text =
        serializeWorkloadCheckpoint(ckpt, testIdentity());
    WorkloadCheckpoint back;
    ASSERT_TRUE(parseWorkloadCheckpoint(text, testIdentity(), back));
    EXPECT_EQ(back.surrogate, ckpt.surrogate);
    IpcPredictor model;
    ASSERT_TRUE(IpcPredictor::parse(back.surrogate, model));
    EXPECT_TRUE(model.armed());
}

TEST(SurrogateCheckpoint, EmptyModelLineStaysAbsent)
{
    WorkloadCheckpoint ckpt;
    ckpt.anneal.current = space().initialConfig();
    ckpt.anneal.result.best = space().initialConfig();
    const std::string text =
        serializeWorkloadCheckpoint(ckpt, testIdentity());
    EXPECT_EQ(text.find("surrogate"), std::string::npos);
    WorkloadCheckpoint back;
    back.surrogate = "stale";
    ASSERT_TRUE(parseWorkloadCheckpoint(text, testIdentity(), back));
    EXPECT_TRUE(back.surrogate.empty());
}

TEST(SurrogateCheckpoint, SuiteRoundTripCarriesPerWorkloadModels)
{
    SuiteCheckpoint ckpt;
    for (int i = 0; i < 2; ++i) {
        SuiteWorkloadState ws;
        ws.current = space().initialConfig();
        ws.current.name = "w" + std::to_string(i);
        ws.surrogate =
            i == 0 ? trainedOnWalk(26, 41).serialize() : "";
        ckpt.workloads.push_back(ws);
    }
    const std::string text =
        serializeSuiteCheckpoint(ckpt, testIdentity());
    SuiteCheckpoint back;
    ASSERT_TRUE(parseSuiteCheckpoint(text, testIdentity(), back));
    ASSERT_EQ(back.workloads.size(), 2u);
    EXPECT_EQ(back.workloads[0].surrogate,
              ckpt.workloads[0].surrogate);
    EXPECT_TRUE(back.workloads[1].surrogate.empty());
}

// --- explorer integration: XPS_SURROGATE=1 ---------------------------------

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

/** Death-test body: explore with checkpointing and _exit(42) at the
 *  Nth checkpoint write — no cleanup, no flush, exactly like a
 *  SIGKILL at that instant. Env knobs set by the caller are inherited
 *  across the death-test fork. */
[[noreturn]] void
exploreAndKill(const std::string &dir, uint64_t seed, int kill_after)
{
    ExplorerOptions opts = miniOpts(seed);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    auto writes = std::make_shared<std::atomic<int>>(0);
    opts.checkpointWrittenHook =
        [writes, kill_after](const std::string &) {
            if (writes->fetch_add(1) + 1 >= kill_after)
                ::_exit(42);
        };
    Explorer(miniSuite(), opts).exploreAll();
    ::_exit(0); // unreachable for the kill points we sweep
}

} // namespace

TEST(SurrogateExplorer, CheckpointedRunMatchesPlainRun)
{
    ScopedEnv on("XPS_SURROGATE", "1");
    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();

    const std::string dir = freshDir("plain_eq");
    ExplorerOptions opts = miniOpts(5);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto checked = Explorer(miniSuite(), opts).exploreAll();

    expectResultsIdentical(checked, golden);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

namespace
{

struct KillParam
{
    int killAfterWrites;
    uint64_t seed;
};

class SurrogateKillResume : public testing::TestWithParam<KillParam>
{
};

} // namespace

TEST_P(SurrogateKillResume, ResumeAfterKillIsBitIdentical)
{
    // The headline resume guarantee with the model in the loop: the
    // serialized predictor state must restore exactly, or the
    // resumed run's screening decisions — and so its results —
    // would drift from the uninterrupted run's.
    ScopedEnv on("XPS_SURROGATE", "1");
    const auto golden =
        Explorer(miniSuite(), miniOpts(GetParam().seed)).exploreAll();

    const std::string dir = freshDir(
        "kill" + std::to_string(GetParam().killAfterWrites) + "_s" +
        std::to_string(GetParam().seed));
    EXPECT_EXIT(exploreAndKill(dir, GetParam().seed,
                               GetParam().killAfterWrites),
                testing::ExitedWithCode(42), "");

    ExplorerOptions opts = miniOpts(GetParam().seed);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto resumed = Explorer(miniSuite(), opts).exploreAll();

    expectResultsIdentical(resumed, golden);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SurrogateKillResume,
    testing::Values(KillParam{1, 9}, KillParam{3, 9}, KillParam{7, 9},
                    KillParam{11, 33}),
    [](const testing::TestParamInfo<KillParam> &info) {
        return "w" + std::to_string(info.param.killAfterWrites) +
               "_seed" + std::to_string(info.param.seed);
    });

TEST(SurrogateExplorer, SurrogateFlagIsPartOfCheckpointIdentity)
{
    // Checkpoints written by a surrogate run must not be resumed by a
    // plain run (vetoes consumed RNG differently): the plain run must
    // ignore them and still match its own golden result.
    const std::string dir = freshDir("identity");
    {
        ScopedEnv on("XPS_SURROGATE", "1");
        EXPECT_EXIT(exploreAndKill(dir, 5, 2),
                    testing::ExitedWithCode(42), "");
    }
    ASSERT_FALSE(std::filesystem::is_empty(dir));

    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();
    ExplorerOptions opts = miniOpts(5);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto resumed = Explorer(miniSuite(), opts).exploreAll();
    expectResultsIdentical(resumed, golden);
    std::filesystem::remove_all(dir);
}

TEST(SurrogateExplorer, SurrogateRunEmitsCounters)
{
    ScopedEnv on("XPS_SURROGATE", "1");
    const uint64_t obs_before =
        Metrics::global().counter("surrogate.observations").get();
    const uint64_t pred_before =
        Metrics::global().counter("surrogate.predictions").get();
    Explorer(miniSuite(), miniOpts(7)).exploreAll();
    EXPECT_GT(
        Metrics::global().counter("surrogate.observations").get(),
        obs_before);
    EXPECT_GT(
        Metrics::global().counter("surrogate.predictions").get(),
        pred_before);
}

// --- workload reduction: XPS_REDUCE_WORKLOADS ------------------------------

TEST(ReduceWorkloads, RepresentativesArePinnedForGoldenSuite)
{
    // The kmeans seed is pinned (kWorkloadClusterSeed), so the
    // workload -> representative map over the 11 golden workloads is
    // a platform-independent constant. A change here means the
    // clustering (or the characterization it embeds) moved: that
    // must be a deliberate, reviewed event, because it changes which
    // workloads every reduced exploration anneals.
    const auto &suite = spec2000int();
    ASSERT_EQ(suite.size(), 11u);
    const std::vector<size_t> k3 = {0, 1, 0, 6, 0, 6, 6, 0, 6, 0, 6};
    const std::vector<size_t> k4 = {0, 1, 0, 6, 0, 6, 6, 0, 10, 0, 10};
    EXPECT_EQ(Explorer::reduceWorkloads(suite, 3), k3);
    EXPECT_EQ(Explorer::reduceWorkloads(suite, 4), k4);
    // Seed stability: the exact same map on every call.
    EXPECT_EQ(Explorer::reduceWorkloads(suite, 3), k3);
    // Every representative is a member of its own cluster.
    for (size_t r : k4)
        EXPECT_EQ(k4[r], r);
}

TEST(ReduceWorkloadsDeathTest, RejectsOutOfRangeK)
{
    EXPECT_EXIT(Explorer::reduceWorkloads(miniSuite(), 0),
                testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(Explorer::reduceWorkloads(miniSuite(), 3),
                testing::ExitedWithCode(1), "out of range");
}

TEST(ReduceWorkloads, ReducedRunPropagatesRepresentativeConfig)
{
    // k=1 over the two-workload mini suite: one representative is
    // annealed, the other workload must inherit its configuration,
    // and both still get their own full-fidelity final evaluation.
    ScopedEnv reduce("XPS_REDUCE_WORKLOADS", "1");
    const auto results =
        Explorer(miniSuite(), miniOpts(5)).exploreAll();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].best.sameArch(results[1].best))
        << results[0].best.summary() << " vs "
        << results[1].best.summary();
    EXPECT_GT(results[0].bestIpt, 0.0);
    EXPECT_GT(results[1].bestIpt, 0.0);
}

TEST(ReduceWorkloads, ReducedRunKillResumeIsBitIdentical)
{
    ScopedEnv reduce("XPS_REDUCE_WORKLOADS", "1");
    const auto golden = Explorer(miniSuite(), miniOpts(9)).exploreAll();
    for (int kill_after : {2, 5}) {
        const std::string dir =
            freshDir("reduce_kill" + std::to_string(kill_after));
        EXPECT_EXIT(exploreAndKill(dir, 9, kill_after),
                    testing::ExitedWithCode(42), "");
        ExplorerOptions opts = miniOpts(9);
        opts.checkpointEvery = 4;
        opts.checkpointDir = dir;
        const auto resumed = Explorer(miniSuite(), opts).exploreAll();
        expectResultsIdentical(resumed, golden);
        std::filesystem::remove_all(dir);
    }
}

TEST(ReduceWorkloads, SurrogateAndReductionCompose)
{
    // Both knobs at once — the full multi-fidelity ladder over the
    // reduced suite — still checkpoint/resume bit-identically.
    ScopedEnv on("XPS_SURROGATE", "1");
    ScopedEnv reduce("XPS_REDUCE_WORKLOADS", "1");
    const auto golden =
        Explorer(miniSuite(), miniOpts(13)).exploreAll();
    const std::string dir = freshDir("compose");
    EXPECT_EXIT(exploreAndKill(dir, 13, 3),
                testing::ExitedWithCode(42), "");
    ExplorerOptions opts = miniOpts(13);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto resumed = Explorer(miniSuite(), opts).exploreAll();
    expectResultsIdentical(resumed, golden);
    std::filesystem::remove_all(dir);
}
