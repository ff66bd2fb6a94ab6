#include "explore/explorer.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "comm/perf_matrix.hh"
#include "explore/predictor.hh"
#include "obs/log.hh"
#include "obs/tracer.hh"
#include "sim/batch.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/kmeans.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/shutdown.hh"
#include "workload/characteristics.hh"
#include "workload/trace.hh"

namespace xps
{

namespace
{

std::vector<std::pair<std::string, double>>
memoToVector(const std::unordered_map<std::string, double> &memo)
{
    return {memo.begin(), memo.end()};
}

/** Characterization length for the surrogate's workload features: a
 *  short fixed stream — the features only need to *separate*
 *  workloads, not measure them precisely, and the cost is paid once
 *  per workload-round. */
constexpr uint64_t kSurrogateCharInstrs = 50000;

/**
 * The paper's adoption rule (§4.1), the one definition both phases
 * call. `row` is workload w's row of a matrix whose columns are the
 * incumbents `held`; adoption only copies incumbents, so col[j] is the
 * column workload j holds. In suite order, w takes col[other] when it
 * runs clearly better there than on its own, row[col[other]] >
 * row[col[w]] * (1 + margin), skipping itself and incumbents of its
 * own architecture. A NaN cell never wins. Each adoption bumps
 * `adoptions` and is logged with `names`. Returns the foreign cells
 * compared.
 */
size_t
adoptRow(size_t w, const std::vector<double> &row,
         const std::vector<CoreConfig> &held, std::vector<size_t> &col,
         double margin, const std::vector<std::string> &names,
         uint64_t &adoptions)
{
    size_t compared = 0;
    for (size_t other = 0; other < col.size(); ++other) {
        if (other == w || held[col[other]].sameArch(held[col[w]]))
            continue;
        ++compared;
        const double ipt = row[col[other]];
        if (ipt > row[col[w]] * (1.0 + margin)) {
            col[w] = col[other];
            ++adoptions;
            Metrics::global().counter("explore.adoptions").add();
            obs::log::event(obs::log::Level::Info, "explore", "adoption",
                            [&] {
                                return obs::Args()
                                    .add("workload", names[w])
                                    .add("from", names[other])
                                    .add("ipt", ipt);
                            });
        }
    }
    return compared;
}

} // namespace

Explorer::WalkKnobs
Explorer::WalkKnobs::fromEnv()
{
    return {envUInt("XPS_BATCH", 1), envUInt("XPS_SURROGATE", 0),
            envUInt("XPS_REDUCE_WORKLOADS", 0)};
}

Explorer::Explorer(std::vector<WorkloadProfile> suite,
                   ExplorerOptions opts, ExploreBounds bounds)
    : suite_(std::move(suite)), opts_(opts), timing_(),
      space_(timing_, bounds), walk_(WalkKnobs::fromEnv()),
      identity_(identityOf(suite_, opts_, bounds))
{
    if (suite_.empty())
        fatal("Explorer: empty workload suite");
    if (opts_.rounds < 1)
        fatal("Explorer: bad options");
    opts_.threads = resolveThreads(opts_.threads);
    if (opts_.checkpointEvery > 0 && opts_.checkpointDir.empty())
        opts_.checkpointDir = Budget::get().resultsDir + "/checkpoints";
    if (opts_.supervised && opts_.supervisorOpts.workers <= 0)
        opts_.supervisorOpts.workers = opts_.threads;
}

double
Explorer::evaluate(const WorkloadProfile &profile,
                   const CoreConfig &config, uint64_t instrs,
                   std::shared_ptr<const TraceBuffer> trace)
{
    SimOptions opts;
    opts.measureInstrs = instrs;
    opts.trace = std::move(trace);
    return simulate(profile, config, opts).ipt();
}

std::vector<size_t>
Explorer::reduceWorkloads(const std::vector<WorkloadProfile> &suite,
                         size_t k)
{
    if (k == 0 || k > suite.size())
        fatal("reduceWorkloads: k=%zu out of range for %zu workloads",
              k, suite.size());
    std::vector<std::vector<double>> points;
    points.reserve(suite.size());
    for (const auto &profile : suite)
        points.push_back(
            measureCharacteristics(profile).featureVector());
    // The seed is pinned (not derived from the exploration seed):
    // the workload -> representative mapping must be identical for
    // any run over the same suite, or resumed and fresh runs would
    // anneal different subsets.
    return kMeansRepresentatives(points, k, kWorkloadClusterSeed);
}

CsvManifest
Explorer::identityOf(const std::vector<WorkloadProfile> &suite,
                     const ExplorerOptions &opts,
                     const ExploreBounds &bounds)
{
    CsvManifest m;
    m.set("schema", std::string("3"));
    m.set("eval_instrs", opts.evalInstrs);
    m.set("sa_iters", opts.saIters);
    m.set("rounds", static_cast<uint64_t>(opts.rounds));
    m.set("seed", opts.seed);
    m.set("final_eval_instrs", opts.finalEvalInstrs);
    // The frontier width changes the walk's trajectory (multiple-try
    // proposals), the surrogate which proposals are simulated, and the
    // workload reduction which workloads anneal at all: runs under
    // other knobs share no checkpoint, cache or store entry.
    const WalkKnobs walk = WalkKnobs::fromEnv();
    m.set("xps_batch", walk.batchWidth);
    m.set("xps_surrogate", walk.surrogate);
    m.set("xps_reduce_workloads", walk.reduceWorkloads);
    m.set("adoption_margin", formatHexDouble(opts.adoptionMargin));
    m.set("gross_adoption_margin",
          formatHexDouble(opts.grossAdoptionMargin));
    const AnnealParams anneal; // schedule shape is part of identity
    m.set("anneal_initial_temp", formatHexDouble(anneal.initialTemp));
    m.set("anneal_final_temp", formatHexDouble(anneal.finalTemp));
    m.set("anneal_rollback", formatHexDouble(anneal.rollbackFraction));
    std::ostringstream bound;
    bound << formatHexDouble(bounds.minClockNs) << ';'
          << formatHexDouble(bounds.maxClockNs) << ';'
          << bounds.maxL1CapacityBytes << ';' << bounds.maxL2CapacityBytes
          << ';' << bounds.maxSchedDepth << ';' << bounds.maxLsqDepth
          << ';' << bounds.maxL1Cycles << ';' << bounds.maxL2Cycles;
    m.set("bounds", bound.str());
    std::ostringstream profiles;
    for (size_t w = 0; w < suite.size(); ++w) {
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(
                          profileFingerprint(suite[w])));
        profiles << (w ? ";" : "") << suite[w].name << ':' << fp;
    }
    m.set("profiles", profiles.str());
    return m;
}

std::string
Explorer::workloadCheckpointPath(size_t w) const
{
    return opts_.checkpointDir + "/" + suite_[w].name + ".ckpt";
}

std::string
Explorer::suiteCheckpointPath() const
{
    return opts_.checkpointDir + "/suite.ckpt";
}

SuiteWorkloadState
Explorer::annealWorkloadRound(
    size_t w, int round, const SuiteWorkloadState &in,
    const CsvManifest &identity, uint64_t itersPerRound,
    const std::shared_ptr<const TraceBuffer> &trace) const
{
    const bool ckpt = opts_.checkpointEvery > 0;
    Metrics &metrics = Metrics::global();
    obs::ScopedSpan round_span("explore.round", "explore", [&] {
        return obs::Args()
            .add("workload", suite_[w].name)
            .add("round", round);
    });

    std::unordered_map<std::string, double> memo(in.memo.begin(),
                                                 in.memo.end());
    uint64_t evals = in.evals;
    uint64_t adoptions = in.adoptions;

    // XPS_SURROGATE=1: an online ridge-regression model over (config
    // knobs x workload characteristics) rides along with the walk
    // (DESIGN.md §12). It learns from every full-fidelity simulation
    // and pre-screens frontier proposals: a candidate it is
    // confidently sure the Metropolis rule would reject is vetoed
    // without being simulated. Its state round-trips through
    // checkpoints so resumed runs veto identically.
    const bool surrogate_on = walk_.surrogate != 0;
    Counter &ctr_sur_obs = metrics.counter("surrogate.observations");
    Counter &ctr_sur_pred = metrics.counter("surrogate.predictions");
    Counter &ctr_sur_veto = metrics.counter("surrogate.screened");
    Histogram *err_hist =
        Metrics::histogramsEnabled()
            ? &metrics.histogram("surrogate.error_ppm")
            : nullptr;
    IpcPredictor pred;
    Characteristics chars;
    if (surrogate_on) {
        obs::ScopedSpan char_span(
            "surrogate.characterize", "explore", [&] {
                return obs::Args()
                    .add("workload", suite_[w].name)
                    .add("instrs", kSurrogateCharInstrs);
            });
        chars = measureCharacteristics(suite_[w], kSurrogateCharInstrs);
        if (!in.surrogate.empty() &&
            !IpcPredictor::parse(in.surrogate, pred)) {
            warn("explore[%s]: unparsable surrogate state; model "
                 "restarts untrained", suite_[w].name.c_str());
        }
    }
    auto observe_sim = [&](const CoreConfig &cfg, double ipt) {
        if (!surrogate_on)
            return;
        const bool was_armed = pred.armed();
        const double err =
            pred.observe(IpcPredictor::features(cfg, chars), ipt);
        ctr_sur_obs.add();
        if (was_armed && err_hist)
            err_hist->record(static_cast<uint64_t>(err * 1e6));
    };

    auto objective = [&](const CoreConfig &cfg) {
        ProcPool::beat(); // liveness for the supervised mode
        const std::string key = cfg.memoKey();
        const auto it = memo.find(key);
        if (it != memo.end())
            return it->second;
        const double ipt = evaluate(suite_[w], cfg, opts_.evalInstrs,
                                    trace);
        ++evals;
        memo.emplace(key, ipt);
        observe_sim(cfg, ipt);
        return ipt;
    };

    AnnealParams params;
    params.iterations = itersPerRound;
    params.seed = opts_.seed * 0x9e3779b97f4a7c15ULL +
                  w * 1315423911ULL + static_cast<uint64_t>(round);
    params.traceLabel = suite_[w].name;
    Annealer annealer(space_, objective, params);

    // XPS_BATCH > 1: score each round's proposals as a frontier
    // through the batched simulator (shared decode + warmup,
    // successive-halving screen — DESIGN.md §11). The walk this
    // produces is a multiple-try variant of the scalar one, which is
    // why the width is part of the exploration's identity.
    const uint64_t batch_width = walk_.batchWidth;
    const uint32_t frontier_width = static_cast<uint32_t>(
        std::max<uint64_t>(1, batch_width));
    std::unique_ptr<BatchSimulator> batch;
    if ((batch_width > 1 || surrogate_on) && trace) {
        BatchOptions bopts;
        bopts.measureInstrs = opts_.evalInstrs;
        batch = std::make_unique<BatchSimulator>(trace, bopts);
        const std::vector<ScreenCut> cuts =
            BatchSimulator::defaultCuts(frontier_width);
        annealer.setFrontier(
            [&, cuts](const std::vector<CoreConfig> &cands,
                      const FrontierContext &ctx,
                      std::vector<double> &scores,
                      std::vector<uint8_t> &full) {
                ProcPool::beat();
                scores.assign(cands.size(), 0.0);
                full.assign(cands.size(), kScreenPartial);
                // Fidelity ladder: memo -> surrogate veto -> short-
                // window cuts -> full-length confirm. The memo is
                // first (it persists across rounds and checkpoints);
                // then the surrogate vetoes confidently-bad
                // proposals without simulating them at all; the
                // survivors go through the screened batch, and only
                // full-length results are trusted or learned from.
                std::vector<size_t> pos;
                std::vector<CoreConfig> to_sim;
                std::vector<std::vector<double>> phis;
                for (size_t i = 0; i < cands.size(); ++i) {
                    const auto it = memo.find(cands[i].memoKey());
                    if (it != memo.end()) {
                        scores[i] = it->second;
                        full[i] = kScreenFull;
                        continue;
                    }
                    if (surrogate_on) {
                        std::vector<double> phi =
                            IpcPredictor::features(cands[i], chars);
                        ctr_sur_pred.add();
                        if (pred.confidentlyBelow(
                                phi, ctx.currentScore, ctx.temp)) {
                            scores[i] = pred.predict(phi);
                            full[i] = kScreenVeto;
                            ctr_sur_veto.add();
                            obs::instant(
                                "surrogate.veto", "explore", [&] {
                                    return obs::Args()
                                        .add("workload",
                                             suite_[w].name)
                                        .add("predicted", scores[i]);
                                });
                            continue;
                        }
                        phis.push_back(std::move(phi));
                    }
                    pos.push_back(i);
                    to_sim.push_back(cands[i]);
                }
                if (to_sim.empty())
                    return;
                const ScreenOutcome outcome = batch->screen(to_sim,
                                                            cuts);
                for (size_t j = 0; j < pos.size(); ++j) {
                    if (!outcome.full[j])
                        continue;
                    const double ipt = outcome.stats[j].ipt();
                    scores[pos[j]] = ipt;
                    full[pos[j]] = kScreenFull;
                    ++evals;
                    memo.emplace(cands[pos[j]].memoKey(), ipt);
                    if (surrogate_on) {
                        const bool was_armed = pred.armed();
                        const double err = pred.observe(phis[j], ipt);
                        ctr_sur_obs.add();
                        if (was_armed && err_hist)
                            err_hist->record(
                                static_cast<uint64_t>(err * 1e6));
                    }
                }
            },
            frontier_width);
    }

    AnnealerState st;
    bool resumed = false;
    if (ckpt) {
        std::string content;
        WorkloadCheckpoint wc;
        if (readFile(workloadCheckpointPath(w), content) &&
            parseWorkloadCheckpoint(content, identity, wc) &&
            wc.round == round) {
            st = std::move(wc.anneal);
            memo.clear();
            memo.insert(wc.memo.begin(), wc.memo.end());
            evals = wc.evals;
            adoptions = wc.adoptions;
            if (surrogate_on && !wc.surrogate.empty() &&
                !IpcPredictor::parse(wc.surrogate, pred)) {
                warn("explore[%s]: unparsable checkpointed surrogate "
                     "state; model restarts untrained",
                     suite_[w].name.c_str());
            }
            resumed = true;
            metrics.counter("checkpoint.workload_resumes").add();
            verbose("explore[%s] resuming round %d at iteration %llu",
                    suite_[w].name.c_str(), round,
                    static_cast<unsigned long long>(st.iteration));
        }
    }
    if (!resumed)
        st = annealer.begin(in.current);

    Annealer::CheckpointHook hook;
    if (ckpt) {
        hook = [&](const AnnealerState &snap) {
            WorkloadCheckpoint wc;
            wc.round = round;
            wc.anneal = snap;
            wc.evals = evals;
            wc.adoptions = adoptions;
            wc.memo = memoToVector(memo);
            if (surrogate_on)
                wc.surrogate = pred.serialize();
            atomicWriteFile(workloadCheckpointPath(w),
                            serializeWorkloadCheckpoint(wc, identity),
                            "checkpoint.write");
            metrics.counter("checkpoint.writes").add();
            obs::instant("checkpoint.write", "io", [&] {
                return obs::Args()
                    .add("workload", suite_[w].name)
                    .add("round", round)
                    .add("iteration", snap.iteration);
            });
            verbose("explore[%s] checkpoint: round %d iteration "
                    "%llu/%llu", suite_[w].name.c_str(), round,
                    static_cast<unsigned long long>(snap.iteration),
                    static_cast<unsigned long long>(itersPerRound));
            if (opts_.checkpointWrittenHook)
                opts_.checkpointWrittenHook(workloadCheckpointPath(w));
        };
    }
    annealer.resume(st, opts_.checkpointEvery, hook);

    SuiteWorkloadState out;
    out.current = st.result.best;
    out.evals = evals;
    out.adoptions = adoptions;
    out.memo = memoToVector(memo);
    if (surrogate_on)
        out.surrogate = pred.serialize();
    return out;
}

std::vector<WorkloadResult>
Explorer::exploreAll()
{
    const size_t n = suite_.size();
    const bool ckpt = opts_.checkpointEvery > 0;
    // Validates checkpoints and every round task's payload.
    const CsvManifest &identity = identity_;
    Metrics &metrics = Metrics::global();
    supervisorReport_ = SupervisorReport{};
    obs::setProcessName(opts_.supervised ? "explorer/supervisor"
                                         : "explorer");
    obs::ScopedSpan explore_span("explore.all", "explore", [&] {
        return obs::Args()
            .add("workloads", static_cast<uint64_t>(n))
            .add("rounds", opts_.rounds)
            .add("supervised", opts_.supervised ? 1 : 0);
    });
    const auto wall_start = std::chrono::steady_clock::now();
    auto elapsed_s = [&] {
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - wall_start;
        return dt.count();
    };

    // With checkpointing on, SIGINT/SIGTERM become a request to stop
    // at the next durable boundary (annealer checkpoint cadence or
    // the round barrier) instead of dying with work in flight; the
    // run exits kGracefulExitCode and a rerun resumes bit-identical.
    if (ckpt)
        installShutdownHandlers();

    std::vector<WorkloadResult> results(n);
    std::vector<CoreConfig> current(n, space_.initialConfig());
    // Per-workload evaluation memo (each is touched by one worker at
    // a time; adoption reads and writes it only on this thread).
    std::vector<std::unordered_map<std::string, double>> memo(n);
    std::vector<uint64_t> evals(n, 0);
    std::vector<uint64_t> adoptions(n, 0);
    // Per-workload serialized surrogate model (empty when
    // XPS_SURROGATE is off); carried across rounds and through the
    // suite barrier checkpoint like the memo.
    std::vector<std::string> surrogate(n);
    // Workloads that lost a round task, an adoption row or a final
    // row to quarantine: degradedWorkloads().
    std::vector<bool> degraded(n, false);

    // XPS_REDUCE_WORKLOADS=K: anneal only the K cluster
    // representatives of the suite's workload characteristics;
    // rep[w] == w marks a representative. Every workload — including
    // the skipped ones, on their representative's configuration —
    // is still validated at full fidelity in the final phase below.
    std::vector<size_t> rep(n);
    std::iota(rep.begin(), rep.end(), 0);
    const uint64_t reduce_k = walk_.reduceWorkloads;
    if (reduce_k > 0 && reduce_k < n) {
        obs::ScopedSpan reduce_span("explore.reduce", "explore", [&] {
            return obs::Args()
                .add("workloads", static_cast<uint64_t>(n))
                .add("clusters", reduce_k);
        });
        rep = reduceWorkloads(suite_,
                              static_cast<size_t>(reduce_k));
    }
    // The annealing workloads, in suite order: the rows and columns of
    // every between-round adoption.
    std::vector<size_t> annealing;
    std::vector<WorkloadProfile> annealing_suite;
    for (size_t w = 0; w < n; ++w) {
        if (rep[w] == w) {
            annealing.push_back(w);
            annealing_suite.push_back(suite_[w]);
        }
    }
    if (annealing.size() < n) {
        metrics.counter("surrogate.workloads_reduced")
            .add(n - annealing.size());
        inform("workload reduction: annealing %zu of %zu workloads "
               "(XPS_REDUCE_WORKLOADS=%llu)", annealing.size(), n,
               static_cast<unsigned long long>(reduce_k));
    }

    const uint64_t iters_per_round =
        std::max<uint64_t>(1, opts_.saIters /
                              static_cast<uint64_t>(opts_.rounds));

    // --- resume the round-barrier state ------------------------------------
    int start_round = 0;
    if (ckpt) {
        std::string content;
        SuiteCheckpoint sc;
        if (readFile(suiteCheckpointPath(), content)) {
            if (parseSuiteCheckpoint(content, identity, sc) &&
                sc.workloads.size() == n && sc.round <= opts_.rounds) {
                for (size_t w = 0; w < n; ++w) {
                    current[w] = sc.workloads[w].current;
                    evals[w] = sc.workloads[w].evals;
                    adoptions[w] = sc.workloads[w].adoptions;
                    memo[w].insert(sc.workloads[w].memo.begin(),
                                   sc.workloads[w].memo.end());
                    surrogate[w] = sc.workloads[w].surrogate;
                }
                start_round = sc.round;
                metrics.counter("checkpoint.suite_resumes").add();
                inform("resuming exploration from %s (round %d/%d)",
                       suiteCheckpointPath().c_str(), start_round,
                       opts_.rounds);
            } else {
                warn("ignoring stale or corrupt checkpoint %s",
                     suiteCheckpointPath().c_str());
                metrics.counter("checkpoint.rejected").add();
            }
        }
    }

    auto write_suite_ckpt = [&](int round) {
        if (!ckpt)
            return;
        SuiteCheckpoint sc;
        sc.round = round;
        sc.workloads.resize(n);
        for (size_t w = 0; w < n; ++w) {
            sc.workloads[w].current = current[w];
            sc.workloads[w].evals = evals[w];
            sc.workloads[w].adoptions = adoptions[w];
            sc.workloads[w].memo = memoToVector(memo[w]);
            sc.workloads[w].surrogate = surrogate[w];
        }
        atomicWriteFile(suiteCheckpointPath(),
                        serializeSuiteCheckpoint(sc, identity));
        metrics.counter("checkpoint.writes").add();
        obs::instant("checkpoint.write", "io", [&] {
            return obs::Args()
                .add("workload", "suite")
                .add("round", round);
        });
        if (opts_.checkpointWrittenHook)
            opts_.checkpointWrittenHook(suiteCheckpointPath());
    };

    // Materialize each workload's stream once; the annealing inner
    // loop then replays the shared buffer for every candidate
    // configuration instead of regenerating it per evaluation.
    // (Evaluations run with the default warmup: measure + warmup =
    // 2 * evalInstrs ops.) Deferred until annealing actually runs so
    // a resume straight into the final phase skips the cost.
    std::vector<std::shared_ptr<const TraceBuffer>> traces(n);

    // `supervised` picks the backend of the rounds, the adoption rows
    // and the final matrix; the code that runs on it is the same.
    Supervisor sup(opts_.supervised
                       ? opts_.supervisorOpts
                       : SupervisorOptions::onThreads(opts_.threads));

    if (start_round < opts_.rounds) {
        for (const size_t w : annealing)
            traces[w] = sharedTrace(suite_[w], 0, 2 * opts_.evalInstrs);
        ScopedTimer timer("explore.anneal_seconds");
        // Workloads whose annealing task was quarantined: their
        // configuration is frozen at the last completed round and the
        // suite degrades gracefully instead of aborting.
        std::vector<bool> frozen(n, false);

        auto snapshotState = [&](size_t w) {
            SuiteWorkloadState in;
            in.current = current[w];
            in.evals = evals[w];
            in.adoptions = adoptions[w];
            in.memo = memoToVector(memo[w]);
            in.surrogate = surrogate[w];
            return in;
        };
        auto installState = [&](size_t w, const SuiteWorkloadState &out) {
            current[w] = out.current;
            evals[w] = out.evals;
            adoptions[w] = out.adoptions;
            memo[w] = std::unordered_map<std::string, double>(
                out.memo.begin(), out.memo.end());
            surrogate[w] = out.surrogate;
        };

        for (int round = start_round; round < opts_.rounds; ++round) {
            // One task per annealing workload. Its payload is the
            // post-round state as a one-workload suite checkpoint
            // under the identity manifest, and its merge validates and
            // installs it. On the process backend each task runs in a
            // forked worker that inherits the suite state by fork; a
            // crashed or hung worker is retried (resuming from its
            // checkpoint when one exists) and can never install a torn
            // state. On either backend each workload is touched by one
            // task, so snapshot and install need no locking.
            std::vector<SupervisedTask> tasks;
            std::vector<size_t> task_workload;
            size_t merged = 0;
            for (size_t w = 0; w < n; ++w) {
                if (frozen[w] || rep[w] != w)
                    continue; // quarantined, or reduced away
                SupervisedTask task;
                task.name = suite_[w].name + ".round" +
                            std::to_string(round);
                task.run = [&, w, round] {
                    SuiteCheckpoint sc;
                    sc.round = round;
                    sc.workloads.push_back(annealWorkloadRound(
                        w, round, snapshotState(w), identity,
                        iters_per_round, traces[w]));
                    return serializeSuiteCheckpoint(sc, identity);
                };
                task.merge = [&, w, round](const std::string &payload) {
                    SuiteCheckpoint sc;
                    if (!parseSuiteCheckpoint(payload, identity, sc) ||
                        sc.round != round || sc.workloads.size() != 1)
                        return false;
                    installState(w, sc.workloads[0]);
                    inform("explore progress: round %d/%d, %s merged "
                           "(%zu/%zu), %.1fs", round + 1, opts_.rounds,
                           suite_[w].name.c_str(), ++merged,
                           task_workload.size(), elapsed_s());
                    return true;
                };
                tasks.push_back(std::move(task));
                task_workload.push_back(w);
            }
            const std::vector<ProcJobOutcome> outcomes = sup.run(tasks);
            for (size_t j = 0; j < outcomes.size(); ++j) {
                if (outcomes[j].status ==
                    ProcJobOutcome::Status::Quarantined) {
                    frozen[task_workload[j]] = true;
                    degraded[task_workload[j]] = true;
                    warn("explore[%s]: round %d quarantined; "
                         "freezing its configuration at the last "
                         "completed round",
                         suite_[task_workload[j]].name.c_str(), round);
                }
            }

            // Cross-adoption (§4.1) *between* rounds: a workload that
            // performs clearly better on another workload's incumbent
            // takes it as its own and keeps annealing from there in
            // the next round, exactly as in the paper — so adopted
            // configurations re-specialize instead of collapsing the
            // suite onto a few shared architectures. No adoption
            // after the final round. The matrix is over the annealing
            // workloads and their pre-adoption incumbents `held`, and
            // its rows are built one at a time on the rounds'
            // executor, right before their workload decides: row i
            // simulates every incumbent some workload still holds and
            // memo[i] lacks, exactly the cells a serial loop would
            // (DESIGN.md §6). A quarantined row leaves its workload
            // on its incumbent for this round, and none of its cells is
            // memoized or counted.
            if (round < opts_.rounds - 1) {
                ScopedTimer adopt_timer("explore.adopt_seconds");
                obs::ScopedSpan adopt_span(
                    "explore.adopt", "explore", [&] {
                        return obs::Args().add("round", round);
                    });
                const size_t k = annealing.size();
                std::vector<CoreConfig> held;
                for (const size_t w : annealing)
                    held.push_back(current[w]);
                std::vector<size_t> col(k);
                std::iota(col.begin(), col.end(), 0);
                for (size_t i = 0; i < k; ++i) {
                    const size_t w = annealing[i];
                    auto &m = memo[w];
                    std::vector<std::vector<bool>> skip(
                        k, std::vector<bool>(k, true));
                    for (const size_t j : col) {
                        for (size_t c = 0; c < k; ++c) {
                            if (held[j].sameArch(held[c]) &&
                                !m.contains(held[c].memoKey()))
                                skip[i][c] = false;
                        }
                    }
                    std::vector<std::string> lost;
                    const PerfMatrix cells = PerfMatrix::build(
                        annealing_suite, held, opts_.evalInstrs, sup, "",
                        &lost, &skip);
                    if (!lost.empty()) {
                        warn("explore[%s]: round %d adoption row "
                             "quarantined; keeping its incumbent",
                             suite_[w].name.c_str(), round);
                        degraded[w] = true;
                        continue;
                    }
                    // Memoize and count each simulated cell once per
                    // architecture, in the order a serial loop reads
                    // them: the memo's iteration order reaches the
                    // checkpoints.
                    std::vector<double> row(k);
                    for (const size_t c : col) {
                        const auto [it, fresh] =
                            m.emplace(held[c].memoKey(), cells.ipt(i, c));
                        evals[w] += fresh;
                        row[c] = it->second;
                    }
                    adoptRow(i, row, held, col, opts_.adoptionMargin,
                             cells.names(), adoptions[w]);
                }
                for (size_t i = 0; i < k; ++i)
                    current[annealing[i]] = held[col[i]];
            }
            // After the last round, hand every reduced-away workload
            // its representative's configuration — the final phase
            // below then validates *all* workloads on their
            // configurations at full fidelity (and gross adoption can
            // still override a bad cluster assignment). Done before
            // the barrier write so a resume straight into the final
            // phase sees the propagated configurations.
            if (round == opts_.rounds - 1) {
                for (size_t w = 0; w < n; ++w) {
                    if (rep[w] != w)
                        current[w] = current[rep[w]];
                }
            }
            // Round barrier: commit the post-adoption suite state in
            // one atomic file, so a crash never mixes pre- and
            // post-adoption state across workloads.
            write_suite_ckpt(round + 1);
            inform("exploration round %d/%d done", round + 1,
                   opts_.rounds);
            // The supervised parent never enters the annealer itself,
            // so its stop point is here, right after the barrier
            // commit (threaded runs usually exit inside the annealer
            // first).
            if (ckpt && stopRequested()) {
                inform("explore: stop requested; round %d barrier is "
                       "durable, exiting gracefully", round + 1);
                obs::flushTrace();
                std::exit(kGracefulExitCode);
            }
        }
    }

    // Final phase (DESIGN.md §6): one matrix of every workload on
    // every pre-final incumbent at the (longer) final length, on the
    // rounds' executor; its partial file is the phase's checkpoint.
    // The adoption rule applies one last time, to gross violations
    // only, to each row of the matrix. A quarantined row stays NaN, so
    // its workload keeps its incumbent.
    ScopedTimer final_timer("explore.final_seconds");
    obs::ScopedSpan final_span("explore.final", "explore");
    const uint64_t score_instrs = opts_.finalEvalInstrs > 0
                                      ? opts_.finalEvalInstrs
                                      : opts_.evalInstrs;
    const std::string final_partial = opts_.checkpointDir + "/final.partial";
    traces.clear(); // the matrix replays final-length traces of its own
    std::vector<std::string> lost;
    const PerfMatrix pre = PerfMatrix::build(
        suite_, current, score_instrs, sup,
        ckpt ? final_partial : std::string(), &lost);
    supervisorReport_ = sup.report();
    for (const std::string &name : lost)
        degraded[pre.index(name)] = true;
    std::vector<size_t> col(n);
    std::iota(col.begin(), col.end(), 0);
    std::vector<double> row(n);
    for (size_t w = 0; w < n; ++w) {
        for (size_t c = 0; c < n; ++c)
            row[c] = pre.ipt(w, c);
        // Its own score, then every foreign incumbent it compared.
        evals[w] += 1 + adoptRow(w, row, current, col,
                                 opts_.grossAdoptionMargin, pre.names(),
                                 adoptions[w]);
    }

    // Table 5 is the same matrix with its columns remapped to the
    // final configurations.
    std::vector<std::vector<double>> table5(n, std::vector<double>(n));
    degradedWorkloads_.clear();
    for (size_t w = 0; w < n; ++w) {
        for (size_t c = 0; c < n; ++c)
            table5[w][c] = pre.ipt(w, col[c]);
        results[w].workload = suite_[w].name;
        results[w].best = current[col[w]];
        results[w].best.name = suite_[w].name;
        results[w].bestIpt = pre.ipt(w, col[w]);
        results[w].evaluations = evals[w];
        results[w].adoptions = adoptions[w];
        if (degraded[w])
            degradedWorkloads_.push_back(suite_[w].name);
    }
    crossMatrix_ = PerfMatrix(pre.names(), std::move(table5));

    // Exploration complete: the checkpoints have served their purpose
    // and must not shadow a future (possibly different) run.
    if (ckpt) {
        std::error_code ec;
        for (size_t w = 0; w < n; ++w)
            std::filesystem::remove(workloadCheckpointPath(w), ec);
        std::filesystem::remove(suiteCheckpointPath(), ec);
        std::filesystem::remove(final_partial, ec);
        metrics.counter("checkpoint.completed_runs").add();
    }
    return results;
}

} // namespace xps
