#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "bench.hh"
#include "comm/combination.hh"
#include "comm/perf_matrix.hh"
#include "comm/subsetting.hh"
#include "comm/surrogate.hh"
#include "daemon.hh"
#include "explore/explorer.hh"
#include "obs/json.hh"
#include "pipeline.hh"
#include "stats.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "workload/characteristics.hh"
#include "workload/profile.hh"

namespace xpsbench
{

namespace json = xps::obs::json;

namespace
{

double
secondsSince(uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e9;
}

void
writeAll(int fd, const std::string &s)
{
    size_t off = 0;
    while (off < s.size()) {
        const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;
        off += static_cast<size_t>(n);
    }
}

void
jsonMap(std::ostringstream &out, const char *key,
        const std::map<std::string, double> &m)
{
    out << ",\"" << key << "\":{";
    bool first = true;
    for (const auto &[k, v] : m) {
        out << (first ? "\"" : ",\"") << k << "\":" << exact(v);
        first = false;
    }
    out << '}';
}

std::map<std::string, double>
readMap(const json::Value &v, const char *key)
{
    std::map<std::string, double> out;
    if (const json::Value *m = v.find(key)) {
        for (const auto &[k, val] : m->fields)
            out[k] = val.number;
    }
    return out;
}

} // namespace

int
pipelineChild(uint64_t seed, const std::string &dir, int resultFd,
              bool probe)
{
    const std::vector<xps::WorkloadProfile> &suite = xps::spec2000int();
    xps::ExplorerOptions eo;
    eo.evalInstrs = kPipeEvalInstrs;
    eo.saIters = kPipeSaIters;
    eo.rounds = kPipeRounds;
    eo.threads = kPipeThreads;
    eo.seed = seed;
    eo.finalEvalInstrs = kPipeFinalInstrs;
    eo.checkpointEvery = kPipeCheckpointEvery;
    eo.checkpointDir = dir + "/checkpoints";

    const uint64_t first = nowNs();
    if (probe) {
        writeAll(resultFd, "{\"first_ns\":" + std::to_string(first) + "}\n");
        return 0;
    }
    // Fig. 1: raw characteristics.
    uint64_t t = nowNs();
    const std::vector<xps::Characteristics> chars =
        xps::measureSuite(suite, kCharInstrs);
    const double charS = secondsSince(t);

    // Table 4: one customized core per workload.
    t = nowNs();
    xps::Explorer explorer(suite, eo);
    const std::vector<xps::WorkloadResult> results = explorer.exploreAll();
    const double exploreS = secondsSince(t);
    std::vector<xps::CoreConfig> configs;
    for (const auto &r : results)
        configs.push_back(r.best);

    // Table 5: every workload on every customized core.
    t = nowNs();
    const xps::PerfMatrix matrix = xps::PerfMatrix::build(
        suite, configs, kPipeFinalInstrs, kPipeThreads,
        eo.checkpointDir + "/table5_matrix.partial");
    const double matrixS = secondsSince(t);

    // §5: combinations, surrogate graphs, subsetting.
    t = nowNs();
    std::ostringstream analyses;
    for (const xps::Merit merit :
         {xps::Merit::Average, xps::Merit::Harmonic,
          xps::Merit::ContentionWeightedHarmonic}) {
        for (size_t k = 1; k <= 4; ++k) {
            const xps::CombinationResult c =
                xps::bestCombination(matrix, k, merit);
            analyses << "comb " << static_cast<int>(merit) << ' ' << k;
            for (const size_t col : c.columns)
                analyses << ' ' << col;
            analyses << ' ' << exact(c.merit.value) << '\n';
        }
    }
    for (const xps::Propagation p :
         {xps::Propagation::None, xps::Propagation::Forward,
          xps::Propagation::Full}) {
        const xps::SurrogateGraph g = xps::greedySurrogates(matrix, p);
        analyses << "surr " << static_cast<int>(p);
        for (const size_t r : g.roots)
            analyses << ' ' << r;
        analyses << ' ' << exact(g.harmonicIpt) << '\n';
    }
    std::vector<std::vector<double>> features;
    for (const auto &c : chars)
        features.push_back(c.featureVector());
    for (size_t k = 1; k <= 4; ++k) {
        analyses << "subset " << k;
        for (const size_t r : xps::selectRepresentatives(features, k))
            analyses << ' ' << r;
        analyses << '\n';
    }
    const double analysesS = secondsSince(t);
    const double pipelineS = secondsSince(first);

    // Checks (untimed). The Table 5 diagonal simulates each workload's
    // own core on the same stream at the final length as the
    // explorer's final score: bit-identical or wrong.
    uint64_t checks = 0, failures = 0;
    std::string errors;
    for (size_t w = 0; w < suite.size(); ++w) {
        ++checks;
        if (matrix.ipt(w, w) != results[w].bestIpt) {
            ++failures;
            errors += "diagonal " + suite[w].name + " " +
                      exact(matrix.ipt(w, w)) + " != bestIpt " +
                      exact(results[w].bestIpt) + "; ";
        }
    }
    xps::Rng rng(seed ^ 0xc0ffeeULL);
    for (int i = 0; i < 3; ++i) {
        const size_t w = rng.below(suite.size());
        const size_t c = rng.below(suite.size());
        ++checks;
        const double ipt = xps::Explorer::evaluate(suite[w], configs[c],
                                                   kPipeFinalInstrs);
        if (ipt != matrix.ipt(w, c)) {
            ++failures;
            errors += "cell " + suite[w].name + "/" + suite[c].name +
                      " recomputes differently; ";
        }
    }

    std::ostringstream digest;
    for (const auto &c : chars)
        for (const double x : c.featureVector())
            digest << exact(x) << ' ';
    for (size_t w = 0; w < suite.size(); ++w) {
        for (const std::string &cell : configs[w].toCsvRow())
            digest << cell << ',';
        digest << exact(results[w].bestIpt) << '\n';
        for (size_t c = 0; c < suite.size(); ++c)
            digest << exact(matrix.ipt(w, c)) << ' ';
    }
    digest << analyses.str();
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(digest.str())));

    const xps::Metrics::Snapshot snap = xps::Metrics::global().snapshot();
    std::map<std::string, double> counters, timers, p50;
    for (const auto &[k, v] : snap.counters)
        counters[k] = static_cast<double>(v);
    for (const auto &[k, v] : snap.timers)
        timers[k] = v;
    for (const auto &[k, h] : snap.histograms)
        p50[k] = static_cast<double>(h.p50Ns);

    std::ostringstream out;
    out << "{\"first_ns\":" << first << ",\"pipeline_s\":" << exact(pipelineS)
        << ",\"char_s\":" << exact(charS) << ",\"explore_s\":"
        << exact(exploreS) << ",\"matrix_s\":" << exact(matrixS)
        << ",\"analyses_s\":" << exact(analysesS) << ",\"digest\":\"" << hex
        << "\",\"checks\":" << checks << ",\"check_failures\":" << failures
        << ",\"errors\":\"" << json::escape(errors) << '"';
    jsonMap(out, "counters", counters);
    jsonMap(out, "timers", timers);
    jsonMap(out, "p50_ns", p50);
    out << "}\n";
    writeAll(resultFd, out.str());
    return 0;
}

PipelineRep
spawnPipeline(uint64_t seed, const std::string &dir, int index, bool traced,
              bool probe)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        fail(std::string("pipe: ") + std::strerror(errno));
    const std::string tag = (probe ? "probe" : "rep") + std::to_string(index);
    PipelineRep rep;
    rep.seed = seed;
    EnvList env;
    if (traced) {
        rep.tracePath = dir + "/" + tag + ".trace.json";
        env.emplace_back("XPS_TRACE_JSON", rep.tracePath);
    }
    std::vector<std::string> argv = {
        buildPath("xpsbench"), "--pipeline-child", "--seed",
        std::to_string(seed), "--dir", dir + "/" + tag, "--result-fd",
        std::to_string(fds[1])};
    if (probe)
        argv.push_back("--probe");
    const std::string log = dir + "/" + tag + ".log";
    const uint64_t t0 = nowNs();
    const int pid = spawn(argv, env, log, fds[1]);
    ::close(fds[1]);
    std::string line;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof(buf))) != 0) {
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            break;
        line.append(buf, static_cast<size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    ChildUsage usage;
    if (!waitExit(pid, 150.0, status, &usage))
        fail("pipeline process " + tag + " did not exit; log tail:\n" +
             fileTail(log, 20));
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        fail("pipeline process " + tag + " ended with status " +
             std::to_string(status) + "; log tail:\n" + fileTail(log, 20));
    json::Value v;
    if (!json::parse(line, v) || !v.find("first_ns"))
        fail("pipeline process " + tag + " reported no result; log tail:\n" +
             fileTail(log, 20));
    rep.setupS =
        (v.numberOr("first_ns", 0.0) - static_cast<double>(t0)) / 1e9;
    rep.peakRssMb = static_cast<double>(usage.maxRssKb) / 1024.0;
    rep.cpuS = usage.cpuS;
    if (probe)
        return rep;
    rep.pipelineS = v.numberOr("pipeline_s", 0.0);
    rep.charS = v.numberOr("char_s", 0.0);
    rep.exploreS = v.numberOr("explore_s", 0.0);
    rep.matrixS = v.numberOr("matrix_s", 0.0);
    rep.analysesS = v.numberOr("analyses_s", 0.0);
    rep.digest = v.stringOr("digest", "");
    rep.checks = static_cast<uint64_t>(v.numberOr("checks", 0));
    rep.checkFailures = static_cast<uint64_t>(v.numberOr("check_failures", 0));
    rep.errors = v.stringOr("errors", "");
    rep.counters = readMap(v, "counters");
    rep.timers = readMap(v, "timers");
    rep.p50Ns = readMap(v, "p50_ns");
    return rep;
}

} // namespace xpsbench
