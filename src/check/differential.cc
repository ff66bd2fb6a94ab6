#include "check/differential.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "check/invariant_checker.hh"
#include "explore/annealer.hh"
#include "explore/predictor.hh"
#include "sim/batch.hh"
#include "sim/ooo_core.hh"
#include "util/logging.hh"
#include "workload/characteristics.hh"
#include "workload/trace.hh"

namespace xps
{

namespace
{

void
compareCount(std::ostringstream &out, const char *what, uint64_t ooo,
             uint64_t ref)
{
    if (ooo != ref)
        out << what << ": core " << ooo << " != oracle " << ref
            << "; ";
}

/** Batched-vs-scalar bit-identity over every SimStats field. */
void
compareBatchedStats(std::ostringstream &out, const SimStats &batched,
                    const SimStats &scalar)
{
    compareCount(out, "batched instructions", batched.instructions,
                 scalar.instructions);
    compareCount(out, "batched cycles", batched.cycles,
                 scalar.cycles);
    compareCount(out, "batched condBranches", batched.condBranches,
                 scalar.condBranches);
    compareCount(out, "batched mispredicts", batched.mispredicts,
                 scalar.mispredicts);
    compareCount(out, "batched loads", batched.loads, scalar.loads);
    compareCount(out, "batched stores", batched.stores,
                 scalar.stores);
    compareCount(out, "batched l1Hits", batched.l1Hits,
                 scalar.l1Hits);
    compareCount(out, "batched l1Misses", batched.l1Misses,
                 scalar.l1Misses);
    compareCount(out, "batched l2Hits", batched.l2Hits,
                 scalar.l2Hits);
    compareCount(out, "batched l2Misses", batched.l2Misses,
                 scalar.l2Misses);
    compareCount(out, "batched robOccupancySum",
                 batched.robOccupancySum, scalar.robOccupancySum);
    if (batched.clockNs != scalar.clockNs)
        out << "batched clockNs: " << batched.clockNs
            << " != " << scalar.clockNs << "; ";
}

DiffResult
runDifferentialCaseImpl(const PropCase &c, bool batched)
{
    // A private buffer, not sharedTrace(): fuzz cases are one-shot
    // and must not pin thousands of traces in the global registry.
    const uint64_t ops =
        c.measureInstrs + c.warmupInstrs + kTraceSlackOps;
    auto buffer = std::make_shared<const TraceBuffer>(
        c.profile, c.streamId, ops);

    DiffResult r;
    InvariantChecker checker(c.config, /*fail_fast=*/false);
    {
        OooCore core(c.config);
        core.setChecker(&checker);
        r.ooo = core.run(buffer, c.measureInstrs, c.warmupInstrs);
    }
    {
        ReferenceCore oracle(c.config);
        TraceCursor cursor(buffer);
        r.ref = oracle.run(cursor, c.measureInstrs, c.warmupInstrs);
    }
    r.invariantViolations = checker.violations();

    std::ostringstream fail;
    if (batched) {
        BatchOptions bopts;
        bopts.measureInstrs = c.measureInstrs;
        bopts.warmupInstrs = c.warmupInstrs;
        BatchSimulator sim(buffer, bopts);
        const std::vector<SimStats> stats = sim.evaluate({c.config});
        compareBatchedStats(fail, stats[0], r.ooo);
    }
    if (!checker.ok())
        fail << checker.violations().size()
             << " invariant violation(s): " << checker.summary()
             << "; ";
    compareCount(fail, "instructions", r.ooo.instructions,
                 r.ref.instructions);
    compareCount(fail, "loads", r.ooo.loads, r.ref.loads);
    compareCount(fail, "stores", r.ooo.stores, r.ref.stores);
    compareCount(fail, "condBranches", r.ooo.condBranches,
                 r.ref.condBranches);
    compareCount(fail, "mispredicts", r.ooo.mispredicts,
                 r.ref.mispredicts);
    if (r.ooo.cycles > r.ref.cycles)
        fail << "IPC domination: core took " << r.ooo.cycles
             << " cycles, serialized oracle only " << r.ref.cycles
             << "; ";

    r.failure = fail.str();
    r.passed = r.failure.empty();
    return r;
}

} // namespace

DiffResult
runDifferentialCase(const PropCase &c)
{
    return runDifferentialCaseImpl(c, /*batched=*/false);
}

DiffResult
runDifferentialCaseBatched(const PropCase &c)
{
    return runDifferentialCaseImpl(c, /*batched=*/true);
}

namespace
{

/** One fuzz campaign over any case property: generate, check, shrink
 *  failures to a local minimum, serialize reproductions as
 *  `<prefix>seed<seed>-iter<i>.case`. */
FuzzReport
runFuzzCampaign(uint64_t iters, uint64_t seed,
                const std::string &corpus_dir, const char *prefix,
                const std::function<std::pair<bool, std::string>(
                    const PropCase &)> &check)
{
    // Shrinking re-evaluates the property hundreds of times; a few
    // shrunk reproductions of the same campaign are plenty.
    constexpr uint64_t kMaxShrunkFailures = 4;

    PropGen gen(seed);
    FuzzReport rep;
    const PropProperty passes = [&check](const PropCase &pc) {
        return check(pc).first;
    };
    for (uint64_t i = 0; i < iters; ++i) {
        const PropCase c = gen.next();
        ++rep.iterations;
        const auto [passed, failure] = check(c);
        if (passed)
            continue;

        const PropCase minimal = shrinkCase(c, passes, gen.timing());
        const auto [mp, mfailure] = check(minimal);
        const std::string &msg = mfailure.empty() ? failure : mfailure;
        ++rep.failures;
        if (rep.failures == 1) {
            rep.firstFailure = minimal;
            rep.firstFailureMessage = msg;
        }
        warn("fuzz case %llu failed (%s); shrunk %llu -> %llu "
             "fields from baseline",
             static_cast<unsigned long long>(i), msg.c_str(),
             static_cast<unsigned long long>(shrinkDistance(c)),
             static_cast<unsigned long long>(shrinkDistance(minimal)));

        if (!corpus_dir.empty()) {
            std::filesystem::create_directories(corpus_dir);
            std::ostringstream name;
            name << prefix << "seed" << seed << "-iter" << i
                 << ".case";
            const std::string path =
                (std::filesystem::path(corpus_dir) / name.str())
                    .string();
            std::ofstream out(path);
            if (!out)
                fatal("fuzz: cannot write corpus file %s",
                      path.c_str());
            out << minimal.serialize();
            rep.corpusFiles.push_back(path);
        }
        if (rep.failures >= kMaxShrunkFailures)
            break;
    }
    return rep;
}

} // namespace

FuzzReport
fuzzDifferential(uint64_t iters, uint64_t seed,
                 const std::string &corpus_dir, bool batched)
{
    return runFuzzCampaign(
        iters, seed, corpus_dir, "fail-",
        [batched](const PropCase &pc) {
            DiffResult r = runDifferentialCaseImpl(pc, batched);
            return std::make_pair(r.passed, std::move(r.failure));
        });
}

SurrogateChainResult
runSurrogateChainCase(const PropCase &c)
{
    const uint64_t ops =
        c.measureInstrs + c.warmupInstrs + kTraceSlackOps;
    auto buffer = std::make_shared<const TraceBuffer>(
        c.profile, c.streamId, ops);

    const UnitTiming timing;
    const SearchSpace space(timing);
    AnnealParams params;
    params.iterations = 96;
    params.seed = configFingerprint(c.config) ^
                  (c.streamId * 0x9e3779b97f4a7c15ULL);

    BatchOptions bopts;
    bopts.measureInstrs = c.measureInstrs;
    bopts.warmupInstrs = c.warmupInstrs;

    SurrogateChainResult r;

    // Unscreened chain: the plain scalar walk (memoized full-fidelity
    // evaluations through a BatchSimulator, bit-identical to
    // simulate()).
    {
        BatchSimulator sim(buffer, bopts);
        const Annealer base(
            space,
            [&](const CoreConfig &cfg) {
                return sim.evaluate({cfg})[0].ipt();
            },
            params);
        const AnnealResult a = base.run(c.config);
        r.baselineBest = a.best;
        r.baselineScore = a.bestScore;
    }

    // Screened chain: same seed, width-1 frontier, an IpcPredictor
    // pre-screening each proposal. Its own simulator (own memo), so
    // the model trains on exactly the simulations this chain pays
    // for. Every full-fidelity score is recorded by fingerprint — the
    // honesty referee below.
    std::unordered_map<uint64_t, double> confirmed;
    std::vector<std::pair<CoreConfig, double>> vetoed;
    {
        BatchSimulator sim(buffer, bopts);
        const Characteristics chars =
            measureCharacteristics(c.profile, 20000);
        // Arm fast (short chains) but veto only far below the walk:
        // at margin 12 a correct veto's candidate had acceptance
        // probability <= e^-12, so trajectory divergence is
        // negligible even over long campaigns — and the honesty
        // property is margin-independent anyway.
        PredictorOptions popts;
        popts.minObservations = 8;
        popts.vetoMargin = 12.0;
        IpcPredictor pred(popts);
        auto full_eval = [&](const CoreConfig &cfg) {
            const double ipt = sim.evaluate({cfg})[0].ipt();
            pred.observe(IpcPredictor::features(cfg, chars), ipt);
            confirmed[configFingerprint(cfg)] = ipt;
            return ipt;
        };
        Annealer screened(space, full_eval, params);
        screened.setFrontier(
            [&](const std::vector<CoreConfig> &cands,
                const FrontierContext &ctx,
                std::vector<double> &scores,
                std::vector<uint8_t> &full) {
                scores.assign(cands.size(), 0.0);
                full.assign(cands.size(), kScreenPartial);
                for (size_t i = 0; i < cands.size(); ++i) {
                    const std::vector<double> phi =
                        IpcPredictor::features(cands[i], chars);
                    if (pred.confidentlyBelow(phi, ctx.currentScore,
                                              ctx.temp)) {
                        scores[i] = pred.predict(phi);
                        full[i] = kScreenVeto;
                        ++r.vetoes;
                        vetoed.emplace_back(
                            cands[i],
                            ctx.currentScore *
                                (1.0 - popts.vetoMargin * ctx.temp));
                        continue;
                    }
                    scores[i] = full_eval(cands[i]);
                    full[i] = kScreenFull;
                }
            },
            1);
        const AnnealResult s = screened.run(c.config);
        r.screenedBest = s.best;
        r.screenedScore = s.bestScore;
    }

    std::ostringstream fail;
    const auto it = confirmed.find(configFingerprint(r.screenedBest));
    if (it == confirmed.end()) {
        fail << "honesty: adopted config was never simulated at "
                "full fidelity; ";
    } else if (it->second != r.screenedScore) {
        fail << "honesty: adopted score " << r.screenedScore
             << " != its confirmed full-fidelity score " << it->second
             << "; ";
    }
    if (configFingerprint(r.screenedBest) ==
        configFingerprint(r.baselineBest)) {
        if (r.screenedScore != r.baselineScore)
            fail << "trajectory: same adopted config but score "
                 << r.screenedScore << " != unscreened "
                 << r.baselineScore << "; ";
    } else if (r.screenedScore < r.baselineScore) {
        // Attribute the merit loss before calling it a failure: a
        // false veto (the model confidently wrong about a candidate's
        // score) diverts the walk while only ever skipping work — the
        // accepted cost of screening with an undertrained model. Re-
        // simulate every vetoed candidate at full fidelity; the loss
        // is a protocol failure only when every veto's claim holds,
        // because then each rejected candidate's Metropolis
        // acceptance probability was <= e^-vetoMargin and the
        // trajectory should not have moved.
        BatchSimulator audit(buffer, bopts);
        for (const auto &[cfg, thr] : vetoed)
            if (audit.evaluate({cfg})[0].ipt() >= thr)
                ++r.falseVetoes;
        if (r.falseVetoes == 0)
            fail << "merit: screened chain adopted a worse config ("
                 << r.screenedScore << " < unscreened "
                 << r.baselineScore << ") with all " << r.vetoes
                 << " vetoes verified correct; ";
    }
    r.failure = fail.str();
    r.passed = r.failure.empty();
    return r;
}

FuzzReport
fuzzSurrogate(uint64_t iters, uint64_t seed,
              const std::string &corpus_dir)
{
    return runFuzzCampaign(
        iters, seed, corpus_dir, "surr-",
        [](const PropCase &pc) {
            SurrogateChainResult r = runSurrogateChainCase(pc);
            return std::make_pair(r.passed, std::move(r.failure));
        });
}

std::vector<PropCase>
loadCorpus(const std::string &dir, const std::string &prefix)
{
    std::vector<PropCase> cases;
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec))
        return cases;
    std::vector<std::string> paths;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".case" &&
            (prefix.empty() ||
             entry.path().filename().string().rfind(prefix, 0) == 0))
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string &path : paths) {
        std::ifstream in(path);
        if (!in)
            fatal("corpus: cannot read %s", path.c_str());
        std::ostringstream text;
        text << in.rdbuf();
        cases.push_back(PropCase::parse(text.str()));
    }
    return cases;
}

} // namespace xps
