/**
 * @file
 * xpsbench: one benchmark run of one workload.
 *
 *   xpsbench --workload <serve_whatif|serve_explore|paper_pipeline>
 *            --seed N --seconds S --trace 0|1
 *
 * --trace 0 measures the end-to-end metrics with tracing off;
 * --trace 1 spends half the run untraced and half traced, and prints
 * the per-layer budget plus the measured cost of tracing. A readable
 * report comes first; the last stdout line is the JSON result. Any
 * failure exits 1 naming the workload and step, prints no result,
 * and leaves no process behind.
 */

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.hh"
#include "budget.hh"
#include "daemon.hh"
#include "gen.hh"
#include "pipeline.hh"
#include "serve_load.hh"
#include "sim/simulator.hh"
#include "spec.hh"
#include "stats.hh"
#include "workload/profile.hh"

using namespace xpsbench;

namespace
{

constexpr int kConnections = 4;
constexpr double kWarmupS = 1.0;
/** Set-up is a few milliseconds: report the median of many starts. */
constexpr int kSetupProbes = 200;
constexpr int kPipelineProbes = 100;
/** A run ends within this many seconds or fails (the build is done
 *  before the binary starts). */
constexpr unsigned kRunDeadlineS = 170;

std::string gWorkload = "startup";

void
onSignal(int sig)
{
    const char *msg = sig == SIGALRM
                          ? ": FAILED: run deadline exceeded; tearing down\n"
                          : ": interrupted; tearing down\n";
    ssize_t ignored = ::write(2, stepLabel(), std::strlen(stepLabel()));
    ignored = ::write(2, msg, std::strlen(msg));
    (void)ignored;
    killChildren();
    ::_exit(sig == SIGALRM ? 1 : 128 + sig);
}

void
installHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    for (const int sig : {SIGINT, SIGTERM, SIGHUP, SIGALRM})
        ::sigaction(sig, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
}

void
printPhase(const char *name, const PhaseCount &p)
{
    std::printf("phase %-10s sent %6llu  succeeded %6llu  failed %llu\n", name,
                static_cast<unsigned long long>(p.sent),
                static_cast<unsigned long long>(p.succeeded),
                static_cast<unsigned long long>(p.failed));
}

void
printMetric(const std::string &name, double value, const char *unit)
{
    std::printf("  %-30s %14.6g %s\n", name.c_str(), value, unit);
}

/** Latencies (ms) of the timed samples of one class. */
std::vector<double>
classMs(const LoadRun &run, const std::string &klass)
{
    std::vector<double> ms;
    for (const Sample &s : run.samples) {
        if (s.ok && s.klass == klass)
            ms.push_back(s.ms());
    }
    return ms;
}

/** classMs(), failing the run when the class has no sample. */
std::vector<double>
needMs(const LoadRun &run, const std::string &klass)
{
    std::vector<double> ms = classMs(run, klass);
    if (ms.empty())
        fail("no successful '" + klass + "' request in the timed window");
    return ms;
}

double
needP(const LoadRun &run, const std::string &klass, double p)
{
    return percentile(needMs(run, klass), p);
}

uint64_t
threadCpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(ts.tv_nsec);
}

/** Host-speed reference for reading a run: median CPU and wall time of
 *  a fixed simulation (gcc on the Table-3 core, 20k instructions). The
 *  shared host's capacity drifts; this line shows by how much, and
 *  whether the CPU ran slower (both move) or was taken away (only the
 *  wall time moves). */
void
printHostProbe(const char *when)
{
    xps::SimOptions opts;
    opts.measureInstrs = 20000;
    const xps::WorkloadProfile &gcc = xps::profileByName("gcc");
    const xps::CoreConfig core = xps::CoreConfig::initial();
    std::vector<double> cpuMs, wallMs;
    for (int i = 0; i < 5; ++i) {
        const uint64_t c0 = threadCpuNs(), t0 = nowNs();
        xps::simulate(gcc, core, opts);
        wallMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        cpuMs.push_back(static_cast<double>(threadCpuNs() - c0) / 1e6);
    }
    std::printf("host probe %s: fixed 20k-instruction simulate() cpu %.3f "
                "ms, wall %.3f ms\n",
                when, median(cpuMs), median(wallMs));
}

/** Write back what earlier runs left dirty on the checkout's file
 *  system, so that it does not land in the set-up probes' fsyncs. */
void
flushFileSystem()
{
    const int fd = ::open(".", O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
        ::syncfs(fd);
        ::close(fd);
    }
}

void
printSetups(const std::vector<double> &setups)
{
    std::printf("set-up over %zu starts: min %.3f  p25 %.3f  p50 %.3f  "
                "p75 %.3f  max %.3f ms\n",
                setups.size(), percentile(setups, 0) * 1e3,
                percentile(setups, 25) * 1e3, percentile(setups, 50) * 1e3,
                percentile(setups, 75) * 1e3, percentile(setups, 100) * 1e3);
}

struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    add(const PhaseCount &p)
    {
        attempted += p.sent;
        failed += p.failed;
    }
};

void
finish(const Tally &tally, const MetricMap &values,
       const std::vector<MetricSpec> &spec)
{
    printHostProbe("after");
    for (const std::string &e : tally.errors)
        std::printf("error: %s\n", e.c_str());
    std::printf("failed_ratio %.6g (%llu of %llu operations)\n",
                tally.attempted ? static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted)
                                : 0.0,
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    std::string error;
    const std::string line = resultLine(tally.failed == 0, tally.attempted,
                                        tally.failed, values, spec, error);
    if (line.empty())
        fail(error);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

// --- serve workloads ----------------------------------------------------

struct ServePhase
{
    LoadRun run;
    MetricsSnap before;
    MetricsSnap after;
    double bootS = 0.0;
    double rssMb = 0.0;
    Trace trace;
};

ServePhase
servePhase(const std::string &tag, const EnvList &env, bool traced,
           const Load &load, double seconds, AnswerBook &book)
{
    ServePhase p;
    setStep(gWorkload, tag + " boot");
    Daemon d(tag, env, traced);
    p.bootS = d.boot();
    p.before = d.metrics();
    setStep(gWorkload, tag + " load");
    p.run = runClosedLoop(d.socket(), load, kConnections, kWarmupS, seconds,
                          tag.substr(0, 1), book);
    p.after = d.metrics();
    p.rssMb = static_cast<double>(d.peakRssKb()) / 1024.0;
    setStep(gWorkload, tag + " drain");
    d.stop();
    if (traced) {
        setStep(gWorkload, tag + " trace");
        std::string error;
        if (!p.trace.load(d.tracePath(), error))
            fail(error + "; log tail:\n" + fileTail(d.logPath(), 20));
    }
    return p;
}

void
runServe(uint64_t seed, double seconds, bool traced)
{
    const bool whatif = gWorkload == "serve_whatif";
    const std::string main = whatif ? "cold" : "explore";
    // serve_whatif's second class is the coalesced join, not the store
    // hit: a hit waits out whatever fsync or fork the single-threaded
    // loop is in, so its latency follows the shared disk's fsync time,
    // which drifted by a third between ten-seed sets, past any bound
    // the benchmark may set. A join waits for the rest of its original
    // job, so it follows the compute path. The hit figures stay in the
    // report and, per layer, in serve.residual_ms_per_req.
    const std::string alt = whatif ? "coalesced" : "matrix";
    setStep(gWorkload, "generate");
    const Load load =
        whatif ? generateWhatif(seed, 200000) : generateExplore(seed, 20000);
    EnvList env = {{"XPS_SERVE_WORKERS", "2"}};
    if (!whatif)
        env.emplace_back("XPS_BATCH", "8");

    Tally tally;
    AnswerBook book;
    MetricMap values;
    const ServePhase *measured = nullptr;
    ServePhase plain, withTrace;
    std::vector<double> setups;
    if (!traced) {
        setStep(gWorkload, "setup probes");
        flushFileSystem();
        for (int i = 0; i < kSetupProbes; ++i) {
            Daemon probe("probe", env, false);
            setups.push_back(probe.boot());
            probe.stop();
        }
        plain = servePhase("untraced", env, false, load, seconds, book);
        setups.push_back(plain.bootS);
        measured = &plain;
        values["setup_s"] = median(setups);
        values["peak_rss_mb"] = plain.rssMb;
        values["ops_per_s"] =
            static_cast<double>(plain.run.completedInWindow) / seconds;
        values["p50_ms"] = needP(plain.run, main, 50);
        // A join finds its original job either queued or running, and
        // the median of that two-mode distribution sits on the slope
        // between the modes, where a small change in how often the
        // queue is full moves it far; the mean moves in proportion.
        values["alt_ms"] = whatif ? mean(needMs(plain.run, alt))
                                  : needP(plain.run, alt, 50);
    } else {
        plain = servePhase("untraced", env, false, load, seconds / 2, book);
        withTrace = servePhase("traced", env, true, load, seconds / 2, book);
        measured = &withTrace;
    }
    for (const ServePhase *p : {&plain, &withTrace}) {
        tally.add(p->run.warmup);
        tally.add(p->run.timed);
        tally.errors.insert(tally.errors.end(), p->run.errors.begin(),
                            p->run.errors.end());
    }

    setStep(gWorkload, "recompute");
    PhaseCount recompute;
    auto addRecompute = [&](Op op, size_t n) {
        const PhaseCount r = recomputeSample(load, book, op, n, seed, tally.errors);
        recompute.sent += r.sent;
        recompute.succeeded += r.succeeded;
        recompute.failed += r.failed;
    };
    if (whatif) {
        addRecompute(Op::Whatif, 12);
    } else {
        ::setenv("XPS_BATCH", "8", 1);
        addRecompute(Op::Explore, 2);
        addRecompute(Op::Matrix, 3);
        ::unsetenv("XPS_BATCH");
    }
    tally.add(recompute);

    std::printf("== %s seed %llu%s\n", gWorkload.c_str(),
                static_cast<unsigned long long>(seed),
                traced ? " (traced budget)" : "");
    printPhase("warmup", measured->run.warmup);
    printPhase("timed", measured->run.timed);
    printPhase("recompute", recompute);
    std::printf("answer digest %016llx over %zu groups\n",
                static_cast<unsigned long long>(answerDigest(book)),
                book.answers().size());
    for (const char *k : {"cold", "hit", "coalesced", "explore", "matrix", "repeat"}) {
        const std::vector<double> ms = classMs(measured->run, k);
        if (!ms.empty())
            std::printf("class %-9s n %6zu  mean %9.3f  p25 %9.3f  p50 %9.3f  "
                        "p75 %9.3f  p90 %9.3f ms\n",
                        k, ms.size(), mean(ms), percentile(ms, 25),
                        percentile(ms, 50), percentile(ms, 75),
                        percentile(ms, 90));
    }

    if (!traced) {
        printSetups(setups);
        std::printf("end-to-end by request class:\n");
        printMetric("setup_s", values["setup_s"], "s");
        printMetric("peak_rss_mb", values["peak_rss_mb"], "MB");
        printMetric("served_per_s", values["ops_per_s"], "req/s");
        if (whatif) {
            printMetric("whatif_cold_p50_ms", values["p50_ms"], "ms");
            printMetric("whatif_cold_p90_ms", needP(plain.run, main, 90),
                        "ms");
            printMetric("whatif_hit_p50_ms", needP(plain.run, "hit", 50), "ms");
            printMetric("whatif_hit_mean_ms", mean(needMs(plain.run, "hit")),
                        "ms");
            printMetric("whatif_coalesced_mean_ms", values["alt_ms"], "ms");
        } else {
            printMetric("explore_p50_ms", values["p50_ms"], "ms");
            printMetric("explore_p90_ms", needP(plain.run, main, 90), "ms");
            printMetric("matrix_p50_ms", values["alt_ms"], "ms");
            printMetric("matrix_p90_ms", needP(plain.run, alt, 90), "ms");
        }
        finish(tally, values, endToEndSpec());
        return;
    }

    // Layer budget of the traced half.
    setStep(gWorkload, "budget");
    const ServePhase &t = withTrace;
    values = zeroLayers();
    const double sends = static_cast<double>(t.run.warmup.sent + t.run.timed.sent);
    traceLayers(t.trace, sends, values);
    counterLayers([&](const std::string &n) { return t.after.counterDelta(t.before, n); },
                  [&](const std::string &n) { return t.after.timerDelta(t.before, n); },
                  [&](const std::string &n) {
                      const auto it = t.after.p50Ns.find(n);
                      return it == t.after.p50Ns.end() ? 0.0 : it->second;
                  },
                  values);
    const RequestBudget budget = requestBudget(t.trace, t.run.samples);
    serveLayers(t.trace, t.run.samples, budget, sends,
                t.after.counterDelta(t.before, "serve.coalesced"),
                t.after.counterDelta(t.before, "serve.shed"), values);
    const double untracedP50 = needP(plain.run, main, 50);
    const double tracedP50 = needP(t.run, main, 50);
    values["obs.trace_overhead_ratio"] = tracedP50 / untracedP50 - 1.0;

    std::printf("layer budget over %zu traced requests (means per request):\n",
                budget.requests);
    std::printf("  %-9s %6s %10s %10s %10s %10s %10s\n", "class", "n",
                "latency", "envelope", "queue", "sim", "explore");
    for (const auto &[k, c] : budget.classes)
        std::printf("  %-9s %6zu %10.3f %10.3f %10.3f %10.3f %10.3f\n",
                    k.c_str(), c.n, c.latencyMs, c.envelopeMs, c.queueMs,
                    c.simMs, c.exploreMs);
    std::printf("  loop self %.4f ms/req, residual %.4f ms/req\n",
                budget.loopSelfMs, budget.residualMs);
    // What this workload is meant to stress (informational).
    const auto cls = budget.classes.find(main);
    if (cls != budget.classes.end()) {
        const RequestBudget::Class &c = cls->second;
        if (whatif) {
            const double servePool = c.envelopeMs - c.queueMs - c.simMs;
            std::printf("stress: fresh whatif serve+pool self %.3f ms vs sim "
                        "%.3f ms: %s\n",
                        servePool, c.simMs,
                        servePool > c.simMs ? "serve-bound" : "sim-bound");
        } else {
            const double afterQueue = c.latencyMs - c.queueMs;
            std::printf("stress: explore+sim %.3f ms of %.3f ms latency after "
                        "queue wait (%.0f%%): %s\n",
                        c.exploreMs, afterQueue,
                        100.0 * c.exploreMs / afterQueue,
                        c.exploreMs > 0.5 * afterQueue ? "explore-bound"
                                                       : "overhead-bound");
        }
    }
    std::printf("untraced %s p50 %.3f ms, traced %.3f ms\n", main.c_str(),
                untracedP50, tracedP50);
    std::printf("per-layer:\n");
    for (const MetricSpec &m : perLayerSpec())
        printMetric(m.name, values[m.name], m.unit.c_str());
    finish(tally, values, perLayerSpec());
}

// --- paper pipeline -----------------------------------------------------

void
runPipeline(uint64_t seed, double seconds, bool traced)
{
    const std::string dir = freshDir("pipe");
    std::vector<double> setups;
    if (!traced) {
        setStep(gWorkload, "setup probes");
        flushFileSystem();
        for (int i = 0; i < kPipelineProbes; ++i)
            setups.push_back(spawnPipeline(seed, dir, i, false, true).setupS);
    }
    setStep(gWorkload, "pipeline");
    // Repetitions cycle through kPipeSeeds explorer seeds drawn from the
    // run's seed, in blocks of one repetition per explorer seed, so every
    // explorer seed runs equally often. A traced run alternates untraced
    // and traced blocks.
    std::vector<uint64_t> explorerSeeds;
    for (int j = 0; j < kPipeSeeds; ++j)
        explorerSeeds.push_back(seed * kPipeSeeds + static_cast<uint64_t>(j));
    std::vector<PipelineRep> reps, tracedReps;
    const uint64_t t0 = nowNs();
    for (int i = 0;; ++i) {
        const int block = i / kPipeSeeds;
        const double elapsed = static_cast<double>(nowNs() - t0) / 1e9;
        if (i % kPipeSeeds == 0 && elapsed >= seconds &&
            block >= (traced ? 2 : 1))
            break;
        const bool withTrace = traced && block % 2 == 1;
        PipelineRep rep = spawnPipeline(explorerSeeds[i % kPipeSeeds], dir, i,
                                        withTrace, false);
        (withTrace ? tracedReps : reps).push_back(std::move(rep));
    }

    Tally tally;
    std::map<uint64_t, std::string> digests; // explorer seed -> first digest
    for (const auto *set : {&reps, &tracedReps}) {
        for (const PipelineRep &r : *set) {
            tally.attempted += 1 + r.checks;
            tally.failed += r.checkFailures;
            if (!r.errors.empty())
                tally.errors.push_back(r.errors);
            const std::string &first =
                digests.emplace(r.seed, r.digest).first->second;
            if (r.digest != first) {
                ++tally.failed;
                tally.errors.push_back(
                    "explorer seed " + std::to_string(r.seed) + ": digest " +
                    r.digest + " differs from " + first +
                    " of its first repetition");
            }
        }
    }

    std::vector<double> wall, downstream, rss, simFrac;
    for (const PipelineRep &r : reps) {
        wall.push_back(r.pipelineS);
        downstream.push_back(r.matrixS + r.analysesS);
        rss.push_back(r.peakRssMb);
        setups.push_back(r.setupS);
    }
    std::printf("== paper_pipeline seed %llu%s\n",
                static_cast<unsigned long long>(seed),
                traced ? " (traced budget)" : "");
    std::printf("budget: chars %llu instrs, explore %llu x %llu iters x %d "
                "rounds, final/matrix %llu instrs, %d threads\n",
                static_cast<unsigned long long>(kCharInstrs),
                static_cast<unsigned long long>(kPipeEvalInstrs),
                static_cast<unsigned long long>(kPipeSaIters), kPipeRounds,
                static_cast<unsigned long long>(kPipeFinalInstrs), kPipeThreads);
    std::printf("repetitions %zu untraced, %zu traced\n", reps.size(),
                tracedReps.size());
    std::string all;
    for (const auto &[explorerSeed, digest] : digests) {
        std::printf("explorer seed %llu: result digest %s\n",
                    static_cast<unsigned long long>(explorerSeed),
                    digest.c_str());
        all += digest;
    }
    std::printf("result digest %016llx over %zu explorer seeds\n",
                static_cast<unsigned long long>(fnv1a(all)), digests.size());
    for (const PipelineRep &r : reps)
        std::printf("rep: seed %llu  setup %.4f s  pipeline %.3f s  (chars %.3f "
                    "explore %.3f matrix %.3f analyses %.4f)  cpu %.3f s  rss "
                    "%.1f MB\n",
                    static_cast<unsigned long long>(r.seed), r.setupS,
                    r.pipelineS, r.charS, r.exploreS, r.matrixS, r.analysesS,
                    r.cpuS, r.peakRssMb);

    MetricMap values;
    if (!traced) {
        values["setup_s"] = median(setups);
        // A mean: peak RSS differs by explorer seed, and every seed runs
        // equally often, so a median would sit between seeds.
        values["peak_rss_mb"] = mean(rss);
        values["ops_per_s"] = static_cast<double>(wall.size()) / sum(wall);
        values["p50_ms"] = median(wall) * 1e3;
        values["alt_ms"] = median(downstream) * 1e3;
        printSetups(setups);
        std::printf("end-to-end by request class:\n");
        printMetric("setup_s", values["setup_s"], "s");
        printMetric("peak_rss_mb", values["peak_rss_mb"], "MB");
        printMetric("pipeline_s", values["p50_ms"] / 1e3, "s");
        printMetric("pipeline_p90_s", percentile(wall, 90), "s");
        finish(tally, values, endToEndSpec());
        removeDir(dir);
        return;
    }

    setStep(gWorkload, "budget");
    values = zeroLayers();
    std::vector<double> tracedWall;
    for (const PipelineRep &r : tracedReps) {
        Trace trace;
        std::string error;
        if (!trace.load(r.tracePath, error))
            fail(error);
        MetricMap m = zeroLayers();
        traceLayers(trace, 1.0, m);
        auto lookup = [](const std::map<std::string, double> &src) {
            return [&src](const std::string &n) {
                const auto it = src.find(n);
                return it == src.end() ? 0.0 : it->second;
            };
        };
        counterLayers(lookup(r.counters), lookup(r.timers), lookup(r.p50Ns), m);
        m["comm.matrix_build_s"] = r.matrixS;
        m["comm.analyses_s"] = r.analysesS;
        simFrac.push_back(m["sim.busy_s"] / (kPipeThreads * r.pipelineS));
        tracedWall.push_back(r.pipelineS);
        for (auto &[k, v] : m)
            values[k] += v;
    }
    for (auto &[k, v] : values)
        v /= static_cast<double>(tracedReps.size());
    values["obs.trace_overhead_ratio"] = median(tracedWall) / median(wall) - 1.0;
    bool serveIdle = true;
    for (const auto &[k, v] : values) {
        if ((k.rfind("serve.", 0) == 0 || k.rfind("util.pool_", 0) == 0) && v != 0)
            serveIdle = false;
    }
    std::printf("stress: sim.busy_s / (threads x pipeline_s) = %.3f: %s; "
                "serve.* and util.pool_* all zero: %s\n",
                mean(simFrac), mean(simFrac) > 0.5 ? "sim-bound" : "not sim-bound",
                serveIdle ? "yes" : "no");
    std::printf("untraced pipeline p50 %.3f s, traced %.3f s\n", median(wall),
                median(tracedWall));
    std::printf("per-layer (mean of %zu traced repetitions):\n", tracedReps.size());
    for (const MetricSpec &m : perLayerSpec())
        printMetric(m.name, values[m.name], m.unit.c_str());
    finish(tally, values, perLayerSpec());
    removeDir(dir);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "xpsbench: %s\nusage: xpsbench --workload <serve_whatif|"
                 "serve_explore|paper_pipeline> --seed N --seconds S "
                 "--trace 0|1\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, dir;
    uint64_t seed = 1;
    double seconds = 0;
    bool traced = false, child = false, probe = false;
    int resultFd = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            workload = value();
        else if (arg == "--seed")
            seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            traced = value() == "1";
        else if (arg == "--pipeline-child")
            child = true;
        else if (arg == "--probe")
            probe = true;
        else if (arg == "--dir")
            dir = value();
        else if (arg == "--result-fd")
            resultFd = std::atoi(value().c_str());
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (child)
        return pipelineChild(seed, dir, resultFd, probe);

    bool known = false;
    for (const std::string &w : workloadNames())
        known |= w == workload;
    if (!known)
        usage(("unknown workload '" + workload + "'").c_str());
    if (!(seconds > 0))
        usage("--seconds must be given and positive");
    gWorkload = workload;
    installHandlers();
    ::alarm(kRunDeadlineS);
    printHostProbe("before");
    if (workload == "paper_pipeline")
        runPipeline(seed, seconds, traced);
    else
        runServe(seed, seconds, traced);
    killChildren();
    return 0;
}
