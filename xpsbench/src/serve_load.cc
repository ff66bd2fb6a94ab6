#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "bench.hh"
#include "comm/perf_matrix.hh"
#include "explore/explorer.hh"
#include "obs/json.hh"
#include "serve/client.hh"
#include "serve_load.hh"
#include "sim/simulator.hh"
#include "stats.hh"
#include "util/rng.hh"
#include "workload/profile.hh"

namespace xpsbench
{

namespace json = xps::obs::json;

bool
AnswerBook::check(size_t group, const std::string &results,
                  std::string &error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = first_.emplace(group, results);
    if (!inserted && it->second != results) {
        error = "group " + std::to_string(group) +
                ": results differ from the group's first answer";
        return false;
    }
    return true;
}

std::map<size_t, std::string>
AnswerBook::answers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return first_;
}

uint64_t
answerDigest(const AnswerBook &book)
{
    uint64_t h = fnv1a("");
    for (const auto &[group, results] : book.answers())
        h = fnv1a(std::to_string(group) + ":" + results + "\n", h);
    return h;
}

namespace
{

bool
finitePositive(const std::string &s)
{
    char *end = nullptr;
    const double x = std::strtod(s.c_str(), &end);
    return end && *end == '\0' && !s.empty() && std::isfinite(x) &&
           x > 0.0;
}

/** Shape check of one answer against the request that produced it. */
bool
wellFormed(const Group &g, const json::Value &results, std::string &error)
{
    auto bad = [&](const std::string &why) {
        error = std::string(opName(g.op)) + " answer: " + why;
        return false;
    };
    if (!results.isArray())
        return bad("results is not an array");
    const auto &rows = results.items;
    if (g.op == Op::Whatif || g.op == Op::Explore) {
        if (rows.size() != g.workloads.size())
            return bad("expected one row per workload");
        for (size_t w = 0; w < rows.size(); ++w) {
            if (rows[w].stringOr("workload", "") != g.workloads[w])
                return bad("row " + std::to_string(w) +
                           " names the wrong workload");
            if (!finitePositive(rows[w].stringOr("ipt", "")))
                return bad("IPT is not a finite positive number");
            if (g.op == Op::Explore) {
                for (const std::string &key : xps::CoreConfig::csvHeader())
                    if (!rows[w].find(key))
                        return bad("row lacks config field " + key);
            }
        }
        return true;
    }
    const size_t w = g.workloads.size();
    const size_t c = g.configs.size();
    if (rows.size() != w * c)
        return bad("expected workloads x configs rows");
    for (size_t i = 0; i < rows.size(); ++i) {
        if (rows[i].stringOr("workload", "") != g.workloads[i / c] ||
            rows[i].stringOr("config", "") != std::to_string(i % c) ||
            rows[i].stringOr("status", "") != "ok" ||
            !finitePositive(rows[i].stringOr("ipt", "")))
            return bad("row " + std::to_string(i) + " is malformed");
    }
    return true;
}

/** Classify and check one reply; fills `s.ok`, `s.hit`, `s.klass`. */
void
judge(const Load &load, const Item &item, const std::string &reply,
      AnswerBook &book, Sample &s, std::string &error)
{
    const Group &g = load.groups[item.group];
    json::Value v;
    if (!json::parse(reply, v) || !v.isObject()) {
        error = "malformed reply: " + reply.substr(0, 120);
        return;
    }
    if (v.stringOr("status", "") != "ok") {
        error = "status " + v.stringOr("status", "?") + ": " +
                v.stringOr("error", "");
        return;
    }
    if (v.find("degraded")) {
        error = "degraded answer";
        return;
    }
    s.hit = v.stringOr("cache", "") == "hit";
    if (g.op == Op::Whatif)
        s.klass = s.hit ? "hit" : (item.fresh ? "cold" : "coalesced");
    else
        s.klass = item.fresh && !s.hit ? opName(g.op) : "repeat";
    const json::Value *results = v.find("results");
    if (!results || !wellFormed(g, *results, error))
        return;
    const size_t at = reply.find("\"results\":");
    if (at == std::string::npos || reply.back() != '}') {
        error = "reply has no results member";
        return;
    }
    if (!book.check(item.group,
                    reply.substr(at, reply.size() - 1 - at), error))
        return;
    s.ok = true;
}

} // namespace

LoadRun
runClosedLoop(const std::string &socket, const Load &load,
              int connections, double warmupS, double seconds,
              const std::string &ridPrefix, AnswerBook &book)
{
    LoadRun run;
    const uint64_t start = nowNs();
    run.windowBeginNs = start + static_cast<uint64_t>(warmupS * 1e9);
    run.windowEndNs = run.windowBeginNs + static_cast<uint64_t>(seconds * 1e9);
    std::atomic<size_t> next{0};
    std::mutex merge;
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            xps::serve::Client client;
            std::vector<Sample> mine;
            std::vector<std::string> errors;
            PhaseCount warm, timed;
            const std::string clientName = "c" + std::to_string(c);
            while (nowNs() < run.windowEndNs) {
                const size_t i = next.fetch_add(1);
                if (i >= load.items.size()) {
                    errors.push_back("request sequence exhausted");
                    break;
                }
                if (!client.isConnected() && !client.connect(socket, 5.0)) {
                    errors.push_back("connect: " + client.error());
                    ++timed.failed;
                    break;
                }
                const Item &item = load.items[i];
                Sample s;
                s.item = i;
                s.rid = ridPrefix + std::to_string(i);
                const std::string line =
                    requestLine(load.groups[item.group],
                                "q" + std::to_string(i), s.rid, clientName);
                std::string reply, error;
                s.sendNs = nowNs();
                const bool answered = client.request(line, reply, 120.0);
                s.recvNs = nowNs();
                if (answered)
                    judge(load, item, reply, book, s, error);
                else
                    error = "transport: " + client.error();
                PhaseCount &phase =
                    s.sendNs < run.windowBeginNs ? warm : timed;
                ++phase.sent;
                ++(s.ok ? phase.succeeded : phase.failed);
                if (!s.ok)
                    errors.push_back("item " + std::to_string(i) + " (" +
                                     opName(load.groups[item.group].op) +
                                     "): " + error);
                if (s.sendNs >= run.windowBeginNs)
                    mine.push_back(std::move(s));
            }
            std::lock_guard<std::mutex> lock(merge);
            run.samples.insert(run.samples.end(), mine.begin(), mine.end());
            run.warmup.sent += warm.sent;
            run.warmup.succeeded += warm.succeeded;
            run.warmup.failed += warm.failed;
            run.timed.sent += timed.sent;
            run.timed.succeeded += timed.succeeded;
            run.timed.failed += timed.failed;
            for (std::string &e : errors) {
                if (run.errors.size() < 8)
                    run.errors.push_back(std::move(e));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    std::sort(run.samples.begin(), run.samples.end(),
              [](const Sample &a, const Sample &b) { return a.item < b.item; });
    for (const Sample &s : run.samples) {
        if (s.ok && s.recvNs <= run.windowEndNs)
            ++run.completedInWindow;
    }
    return run;
}

PhaseCount
recomputeSample(const Load &load, const AnswerBook &book, Op op,
                size_t count, uint64_t seed, std::vector<std::string> &errors)
{
    std::vector<std::pair<size_t, std::string>> pool;
    for (const auto &[group, results] : book.answers()) {
        if (load.groups[group].op == op)
            pool.emplace_back(group, results);
    }
    xps::Rng rng(seed ^ 0x5bd1e995ULL);
    for (size_t i = pool.size(); i > 1; --i)
        std::swap(pool[i - 1], pool[rng.below(i)]);
    if (pool.size() > count)
        pool.resize(count);

    PhaseCount phase;
    for (const auto &[group, results] : pool) {
        const Group &g = load.groups[group];
        ++phase.sent;
        json::Value rows;
        // results is `"results":[...]`; parse the array part.
        if (!json::parse(results.substr(results.find('[')), rows)) {
            ++phase.failed;
            errors.push_back("recompute: unparsable stored answer");
            continue;
        }
        std::vector<xps::WorkloadProfile> profiles;
        for (const std::string &name : g.workloads)
            profiles.push_back(xps::profileByName(name));
        bool match = true;
        if (op == Op::Whatif) {
            xps::SimOptions sim;
            sim.measureInstrs = g.instrs;
            const double ipt =
                xps::simulate(profiles[0], g.configs[0], sim).ipt();
            match = rows.items[0].stringOr("ipt", "") == exact(ipt);
        } else if (op == Op::Matrix) {
            const xps::PerfMatrix m =
                xps::PerfMatrix::build(profiles, g.configs, g.instrs, 1);
            const size_t c = g.configs.size();
            for (size_t i = 0; i < rows.items.size(); ++i)
                match &= rows.items[i].stringOr("ipt", "") ==
                         exact(m.ipt(i / c, i % c));
        } else {
            // The daemon's explore job: one thread, final pass at twice
            // the annealing length (serve/server.cc runExplore).
            xps::ExplorerOptions eo;
            eo.evalInstrs = g.instrs;
            eo.saIters = g.saIters;
            eo.rounds = static_cast<int>(g.rounds);
            eo.seed = g.seed;
            eo.threads = 1;
            eo.finalEvalInstrs = 2 * g.instrs;
            xps::Explorer explorer(profiles, eo);
            const auto res = explorer.exploreAll();
            const auto header = xps::CoreConfig::csvHeader();
            for (size_t w = 0; w < res.size(); ++w) {
                match &= rows.items[w].stringOr("ipt", "") ==
                         exact(res[w].bestIpt);
                const auto cells = res[w].best.toCsvRow();
                for (size_t k = 0; k < header.size(); ++k)
                    match &= rows.items[w].stringOr(header[k], "") == cells[k];
            }
        }
        if (match) {
            ++phase.succeeded;
        } else {
            ++phase.failed;
            errors.push_back("recompute: served " + std::string(opName(op)) +
                             " answer of group " + std::to_string(group) +
                             " differs from the in-process result");
        }
    }
    return phase;
}

} // namespace xpsbench
