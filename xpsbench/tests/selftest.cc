/**
 * @file
 * Self-tests of the benchmark's own machinery: percentile math, span
 * self time and rid joins, generator determinism and protocol round
 * trips, `metrics`-op parsing, and agreement between the metric table
 * and BENCHMARK.json. Run with `python3 xpsbench/run.py --selftest`.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "daemon.hh"
#include "gen.hh"
#include "obs/json.hh"
#include "serve/protocol.hh"
#include "spans.hh"
#include "spec.hh"
#include "stats.hh"
#include "timing/unit_timing.hh"

using namespace xpsbench;

namespace
{

Event
span(const char *name, int pid, unsigned tid, double ts, double dur,
     const char *rid = "")
{
    Event e;
    e.name = name;
    e.pid = pid;
    e.tid = tid;
    e.tsUs = ts;
    e.durUs = dur;
    e.rid = rid;
    return e;
}

} // namespace

TEST(Percentile, KnownVectors)
{
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 90), 4.6);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 25), 2.0);
    EXPECT_DOUBLE_EQ(percentile({10, 20}, 50), 15.0);
    EXPECT_DOUBLE_EQ(percentile({7}, 90), 7.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(median({3, 1, 2, 10}), 2.5);
    EXPECT_DOUBLE_EQ(mean({1, 2, 3, 6}), 3.0);
}

TEST(Spans, CoverageMergesOverlapsAndClips)
{
    EXPECT_DOUBLE_EQ(coveredUs(0, 100, {{10, 20}, {15, 40}, {90, 120}}), 40.0);
    EXPECT_DOUBLE_EQ(coveredUs(0, 100, {}), 0.0);
    EXPECT_DOUBLE_EQ(coveredUs(50, 60, {{0, 100}}), 10.0);
    EXPECT_DOUBLE_EQ(coveredUs(0, 10, {{20, 30}}), 0.0);
}

TEST(Spans, SelfTimeJoinsAcrossPidsByRid)
{
    Trace t;
    // Daemon (pid 1): a request envelope's children carry rid r1 in
    // three processes; the attempt span has no rid and joins through
    // its worker_pid.
    t.spans.push_back(span("serve.journal", 1, 1, 10, 10, "r1"));
    Event attempt = span("pool.attempt", 1, 1, 15, 30);
    xps::obs::json::parse("{\"worker_pid\":2}", attempt.args);
    t.spans.push_back(attempt);
    t.spans.push_back(span("pool.job", 2, 1, 16, 25, "r1"));
    t.spans.push_back(span("sim.run", 2, 1, 20, 10, "r1"));
    t.spans.push_back(span("serve.respond", 1, 1, 90, 30, "r1"));
    t.spans.push_back(span("serve.respond", 1, 1, 60, 5, "r2"));
    const auto byRid = spansByRid(t);
    ASSERT_EQ(byRid.at("r1").size(), 5u);
    ASSERT_EQ(byRid.at("r2").size(), 1u);
    // Envelope [0, 100]: covered [10, 45] and [90, 100].
    EXPECT_DOUBLE_EQ(selfUs(0, 100, byRid.at("r1")), 55.0);
}

TEST(Spans, TotalSelfCountsOnlyNestedSameThreadChildren)
{
    Trace t;
    t.spans.push_back(span("atomic_file.write", 1, 1, 100, 10));
    t.spans.push_back(span("fsync.inner", 1, 1, 102, 4));
    t.spans.push_back(span("fsync.inner", 1, 1, 104, 4)); // overlaps
    // Enclosing span on the same thread and a span of another thread:
    // neither is a child.
    t.spans.push_back(span("serve.queue", 1, 1, 50, 200));
    t.spans.push_back(span("other", 1, 2, 100, 10));
    EXPECT_DOUBLE_EQ(t.totalSelfUs("atomic_file.write"), 4.0);
    EXPECT_DOUBLE_EQ(t.totalUs("fsync.inner"), 8.0);
}

TEST(Spans, ParsesTraceEventLines)
{
    Event e;
    ASSERT_TRUE(Trace::parseLine(
        "{\"name\":\"sim.run\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":12.500,"
        "\"dur\":3.250,\"pid\":7,\"tid\":2,\"rid\":\"u4\",\"args\":"
        "{\"workload\":\"gcc\",\"instrs\":20000}},",
        e));
    EXPECT_EQ(e.name, "sim.run");
    EXPECT_EQ(e.pid, 7);
    EXPECT_EQ(e.rid, "u4");
    EXPECT_DOUBLE_EQ(e.endUs(), 15.75);
    EXPECT_DOUBLE_EQ(e.argNumber("instrs"), 20000);
    ASSERT_TRUE(Trace::parseLine(
        "{\"name\":\"serve.request\",\"cat\":\"serve\",\"ph\":\"i\","
        "\"ts\":1.000,\"s\":\"t\",\"pid\":1,\"tid\":1}",
        e));
    EXPECT_EQ(e.ph, 'i');
    EXPECT_FALSE(Trace::parseLine(
        "{\"name\":\"request\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":1.0,"
        "\"pid\":1,\"tid\":1,\"id\":\"0x1\",\"args\":{\"rid\":\"a\"}},",
        e));
    EXPECT_FALSE(Trace::parseLine("{\"traceEvents\":[", e));
    EXPECT_FALSE(Trace::parseLine("{\"name\":\"torn", e));
}

TEST(Generator, SameSeedSameSequence)
{
    for (const bool whatif : {true, false}) {
        auto render = [&](uint64_t seed) {
            const Load load = whatif ? generateWhatif(seed, 400)
                                     : generateExplore(seed, 200);
            std::ostringstream out;
            for (const Item &item : load.items)
                out << item.fresh << ' '
                    << requestLine(load.groups[item.group], "i", "r", "c")
                    << '\n';
            return out.str();
        };
        EXPECT_EQ(render(11), render(11));
        EXPECT_NE(render(11), render(12));
    }
}

TEST(Generator, MixHasFreshRepeatsAndTwins)
{
    const Load load = generateWhatif(3, 2000);
    size_t fresh = 0, twins = 0;
    for (size_t i = 0; i < load.items.size(); ++i) {
        fresh += load.items[i].fresh;
        twins += i > 0 && !load.items[i].fresh &&
                 load.items[i].group == load.items[i - 1].group;
    }
    EXPECT_GT(fresh, 500u);
    EXPECT_LT(fresh, 1500u);
    EXPECT_GT(twins, 50u);
    EXPECT_EQ(load.groups.size(), fresh);
}

TEST(Generator, ConfigsFitAndSurviveTheProtocol)
{
    const xps::UnitTiming timing;
    for (const bool whatif : {true, false}) {
        const Load load = whatif ? generateWhatif(5, 300)
                                 : generateExplore(5, 300);
        for (const Group &g : load.groups) {
            xps::serve::Request req;
            std::string error;
            ASSERT_TRUE(xps::serve::parseRequest(
                requestLine(g, "id", "rid", "c0"), req, error))
                << error;
            ASSERT_EQ(req.workloads.size(), g.workloads.size());
            EXPECT_EQ(req.instrs, g.instrs);
            if (g.op == Op::Explore) {
                EXPECT_EQ(req.saIters, g.saIters);
                EXPECT_EQ(req.seed, g.seed);
                continue;
            }
            ASSERT_EQ(req.configs.size(), g.configs.size());
            for (size_t i = 0; i < g.configs.size(); ++i) {
                EXPECT_EQ(g.configs[i].checkFits(timing), "");
                EXPECT_EQ(xps::configFingerprint(req.configs[i]),
                          xps::configFingerprint(g.configs[i]));
            }
        }
    }
}

TEST(MetricsOp, ParsesAndDiffsSnapshots)
{
    const std::string before =
        "{\"id\":\"m\",\"status\":\"ok\",\"op\":\"metrics\",\"queued\":0,"
        "\"running\":0,\"workers\":2,\"queue_max\":16,\"counters\":"
        "{\"serve.requests\":4,\"serve.coalesced\":1},\"timers_seconds\":"
        "{\"explore.anneal_seconds\":0.500000},\"histograms_ns\":{}}";
    const std::string after =
        "{\"id\":\"m\",\"status\":\"ok\",\"op\":\"metrics\",\"queued\":1,"
        "\"running\":2,\"workers\":2,\"queue_max\":16,\"counters\":"
        "{\"serve.requests\":10,\"serve.coalesced\":3,\"batch.width\":16},"
        "\"timers_seconds\":{\"explore.anneal_seconds\":1.250000},"
        "\"histograms_ns\":{\"anneal.step\":{\"count\":3,\"p50\":1500,"
        "\"p95\":2000,\"p99\":2000,\"max\":2100,\"mean\":1600.0}}}";
    MetricsSnap a, b;
    ASSERT_TRUE(MetricsSnap::parse(before, a));
    ASSERT_TRUE(MetricsSnap::parse(after, b));
    EXPECT_DOUBLE_EQ(b.counterDelta(a, "serve.requests"), 6.0);
    EXPECT_DOUBLE_EQ(b.counterDelta(a, "serve.coalesced"), 2.0);
    EXPECT_DOUBLE_EQ(b.counterDelta(a, "batch.width"), 16.0);
    EXPECT_DOUBLE_EQ(b.counterDelta(a, "absent"), 0.0);
    EXPECT_DOUBLE_EQ(b.timerDelta(a, "explore.anneal_seconds"), 0.75);
    EXPECT_DOUBLE_EQ(b.p50Ns.at("anneal.step"), 1500.0);
    MetricsSnap bad;
    EXPECT_FALSE(MetricsSnap::parse("{\"status\":\"error\"}", bad));
    EXPECT_FALSE(MetricsSnap::parse(after.substr(0, 40), bad));
}

TEST(Spec, BenchmarkJsonListsExactlyTheEmittedMetrics)
{
    std::ifstream in(XPSBENCH_SPEC_PATH);
    ASSERT_TRUE(in.good()) << XPSBENCH_SPEC_PATH;
    std::stringstream text;
    text << in.rdbuf();
    xps::obs::json::Value root;
    ASSERT_TRUE(xps::obs::json::parse(text.str(), root));

    auto check = [&](const char *key, const std::vector<MetricSpec> &spec) {
        const auto *list = root.find(key);
        ASSERT_TRUE(list && list->isArray()) << key;
        ASSERT_EQ(list->items.size(), spec.size()) << key;
        for (size_t i = 0; i < spec.size(); ++i) {
            EXPECT_EQ(list->items[i].stringOr("name", ""), spec[i].name);
            EXPECT_EQ(list->items[i].stringOr("unit", ""), spec[i].unit);
            EXPECT_EQ(list->items[i].stringOr("better", ""), spec[i].better);
        }
    };
    check("end_to_end", endToEndSpec());
    check("per_layer", perLayerSpec());

    const auto *workloads = root.find("workloads");
    ASSERT_TRUE(workloads && workloads->isArray());
    ASSERT_EQ(workloads->items.size(), workloadNames().size());
    for (size_t i = 0; i < workloadNames().size(); ++i)
        EXPECT_EQ(workloads->items[i].stringOr("name", ""), workloadNames()[i]);

    double setupBound = 0.0, maxOther = 0.0;
    for (const auto &m : root.find("end_to_end")->items) {
        const double bound = m.numberOr("bound", -1);
        EXPECT_GT(bound, 0.0);
        EXPECT_LE(bound, 0.25);
        if (m.stringOr("name", "") == "setup_s")
            setupBound = bound;
        else
            maxOther = std::max(maxOther, bound);
    }
    EXPECT_GE(setupBound, maxOther);
}

TEST(Spec, ResultLineCarriesExactlyTheSpec)
{
    MetricMap values;
    for (const MetricSpec &m : endToEndSpec())
        values[m.name] = 1.5;
    std::string error;
    const std::string line =
        resultLine(true, 10, 0, values, endToEndSpec(), error);
    ASSERT_FALSE(line.empty()) << error;
    xps::obs::json::Value v;
    ASSERT_TRUE(xps::obs::json::parse(line, v));
    EXPECT_EQ(v.find("metrics")->fields.size(), endToEndSpec().size());
    EXPECT_DOUBLE_EQ(v.numberOr("attempted", 0), 10);

    MetricMap missing = values;
    missing.erase("setup_s");
    EXPECT_TRUE(resultLine(true, 1, 0, missing, endToEndSpec(), error).empty());
    MetricMap extra = values;
    extra["bogus"] = 1;
    EXPECT_TRUE(resultLine(true, 1, 0, extra, endToEndSpec(), error).empty());
}
