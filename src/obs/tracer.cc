#include "obs/tracer.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "obs/shard.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

namespace xps
{
namespace obs
{

namespace detail
{
bool gEnabled = false;
} // namespace detail

namespace
{

uint64_t (*gClockFn)() = nullptr;

ShardSink &
sink()
{
    static ShardSink *s = new ShardSink(ShardStream{
        .name = "trace",
        .prefix = "shard",
        .bufferBytes = 64 * 1024,
        .dropped = "trace.dropped_spans",
        .merged = "trace.events_merged",
        .head = "{\"traceEvents\":[\n",
        .separator = ",",
        .tail = "],\"displayTimeUnit\":\"ms\"}\n",
        .armed = &detail::gEnabled,
        .mergeAtExit = [] { mergeTrace(); },
        .reset = nullptr,
    });
    return *s;
}

/**
 * The ambient request id, escaped once at set time. A leaf lock of
 * its own: the structured logger reads it before taking its sink
 * lock, and the tracer copies it before taking its own.
 */
struct RidState
{
    std::mutex mutex;
    std::string rid;
    std::string ridEscaped;
};

RidState &
ridState()
{
    static RidState *r = new RidState();
    return *r;
}

void
appendEvent(const char *name, const char *cat, char ph,
            uint64_t tsNs, uint64_t durNs, bool hasDur,
            const std::string &args)
{
    // Copy the ambient rid before taking the sink lock, and fully
    // release the rid lock first, so the two are never nested.
    std::string rid;
    {
        RidState &r = ridState();
        std::lock_guard<std::mutex> ridLock(r.mutex);
        rid = r.ridEscaped;
    }
    char head[256];
    const int head_len = std::snprintf(
        head, sizeof(head),
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
        "\"ts\":%.3f,", name, cat, ph,
        static_cast<double>(tsNs) / 1000.0);
    char mid[128];
    int mid_len;
    if (hasDur) {
        mid_len = std::snprintf(
            mid, sizeof(mid), "\"dur\":%.3f,\"pid\":%d,\"tid\":%u",
            static_cast<double>(durNs) / 1000.0,
            static_cast<int>(::getpid()), threadId());
    } else {
        mid_len = std::snprintf(
            mid, sizeof(mid), "%s\"pid\":%d,\"tid\":%u",
            ph == 'i' ? "\"s\":\"t\"," : "",
            static_cast<int>(::getpid()), threadId());
    }

    sink().append(tsNs, [&](std::string &out) {
        out.append(head, static_cast<size_t>(head_len));
        out.append(mid, static_cast<size_t>(mid_len));
        if (!rid.empty()) {
            out += ",\"rid\":\"";
            out += rid;
            out += "\"";
        }
        if (!args.empty()) {
            out += ",\"args\":";
            out += args;
        }
        out += "}\n";
    });
}

/** A point a request's flow binds to: the first rid-stamped span of
 *  one (pid, tid). */
struct FlowAnchor
{
    double ts = 0;  ///< span start (µs)
    double mid = 0; ///< span midpoint (µs) — inside the slice
    int pid = 0;
    int tid = 0;
};

/** rid -> (pid, tid) -> anchor. */
using FlowAnchors =
    std::map<std::string, std::map<std::pair<int, int>, FlowAnchor>>;

/** Keep `ev` as its (pid, tid)'s anchor if it is the earliest
 *  rid-stamped span seen there so far. */
void
noteFlowAnchor(const json::Value &ev, FlowAnchors &anchors)
{
    const json::Value *rid = ev.find("rid");
    const json::Value *ph = ev.find("ph");
    const json::Value *pid = ev.find("pid");
    const json::Value *tid = ev.find("tid");
    if (!rid || rid->type != json::Value::Type::String ||
        rid->str.empty() || !ph || ph->type != json::Value::Type::String ||
        ph->str != "X" || !pid ||
        pid->type != json::Value::Type::Number || !tid ||
        tid->type != json::Value::Type::Number)
        return;
    const json::Value *dur = ev.find("dur");
    const double ts = ev.find("ts")->number;
    const double durUs =
        dur && dur->type == json::Value::Type::Number ? dur->number : 0;
    const std::pair<int, int> key{static_cast<int>(pid->number),
                                  static_cast<int>(tid->number)};
    auto &anchor = anchors[rid->str];
    auto found = anchor.find(key);
    if (found == anchor.end() || ts < found->second.ts)
        anchor[key] = {ts, ts + durUs / 2, key.first, key.second};
}

/**
 * Generate Perfetto flow events per request id: bind the first
 * rid-stamped span of each (pid, tid) into one arrowed chain
 * ("s" -> "t"... -> "f"), anchored at span midpoints so every flow
 * point lands inside its slice. A rid seen by only one (pid, tid)
 * has nothing to connect. Returns the number of events added.
 */
size_t
appendFlowEvents(const FlowAnchors &anchors, std::vector<ShardLine> &lines)
{
    size_t added = 0;
    for (const auto &[rid, groups] : anchors) {
        if (groups.size() < 2)
            continue;
        std::vector<FlowAnchor> chain;
        chain.reserve(groups.size());
        for (const auto &[key, anchor] : groups)
            chain.push_back(anchor);
        std::sort(chain.begin(), chain.end(),
                  [](const FlowAnchor &a, const FlowAnchor &b) {
                      return a.mid < b.mid;
                  });
        const std::string escaped = json::escape(rid);
        char idHex[24];
        std::snprintf(idHex, sizeof(idHex), "%016llx",
                      static_cast<unsigned long long>(fnv1a(rid)));
        for (size_t i = 0; i < chain.size(); ++i) {
            const char ph =
                i == 0 ? 's' : (i + 1 == chain.size() ? 'f' : 't');
            char line[256];
            const int n = std::snprintf(
                line, sizeof(line),
                "{\"name\":\"request\",\"cat\":\"flow\","
                "\"ph\":\"%c\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
                "\"id\":\"0x%s\"%s,\"args\":{\"rid\":\"%s\"}}",
                ph, chain[i].mid, chain[i].pid, chain[i].tid, idHex,
                ph == 'f' ? ",\"bp\":\"e\"" : "", escaped.c_str());
            lines.push_back(
                {chain[i].mid, std::string(line, static_cast<size_t>(n))});
            ++added;
        }
    }
    return added;
}

/** Arm from the environment on program start-up, like the metrics
 *  registry: no call sites to sprinkle, one knob to flip. */
const bool gEnvArmed = [] {
    const std::string path = envString("XPS_TRACE_JSON", "");
    if (path.empty())
        return false;
    configureTracing(path);
    return true;
}();

} // namespace

namespace detail
{

uint64_t
nowNs()
{
    if (__builtin_expect(gClockFn != nullptr, 0))
        return gClockFn();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
emitSpan(const char *name, const char *cat, uint64_t beginNs,
         uint64_t endNs, std::string argsJson)
{
    if (!gEnabled)
        return;
    appendEvent(name, cat, 'X', beginNs,
                endNs >= beginNs ? endNs - beginNs : 0, true,
                argsJson);
}

void
emitInstant(const char *name, const char *cat, std::string argsJson)
{
    if (!gEnabled)
        return;
    appendEvent(name, cat, 'i', nowNs(), 0, false, argsJson);
}

} // namespace detail

Args &
Args::add(const char *k, const std::string &value)
{
    key(k);
    body_ += '"';
    body_ += json::escape(value);
    body_ += '"';
    return *this;
}

Args &
Args::add(const char *k, const char *value)
{
    return add(k, std::string(value));
}

Args &
Args::add(const char *k, double value)
{
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    body_ += buf;
    return *this;
}

Args &
Args::add(const char *k, uint64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

Args &
Args::add(const char *k, int value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

void
Args::key(const char *k)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"';
    body_ += k;
    body_ += "\":";
}

void
configureTracing(const std::string &mergedPath)
{
    sink().arm(mergedPath);
    // Spans and latency histograms answer the same "where does time
    // go" question; an armed tracer implies the distributions too.
    Metrics::enableHistograms();
}

void
disableTracing()
{
    sink().disarm();
}

void
flushTrace()
{
    sink().flush();
}

std::string
tracePath()
{
    return sink().mergedPath();
}

void
setProcessName(const std::string &name)
{
    if (!enabled())
        return;
    appendEvent("process_name", "__metadata", 'M', detail::nowNs(), 0,
                false, Args().add("name", name).str());
}

void
setClockForTest(uint64_t (*clock)())
{
    gClockFn = clock;
}

void
setRequestContext(const std::string &rid)
{
    RidState &r = ridState();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.rid = rid;
    r.ridEscaped = json::escape(rid);
}

std::string
requestContext()
{
    RidState &r = ridState();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.rid;
}

MergeStats
mergeTrace()
{
    MergeStats stats;
    FlowAnchors anchors;
    const ShardMergeStats merged = sink().merge(
        [&](const json::Value &ev) {
            if (!ev.find("name") || !ev.find("ph"))
                return false;
            noteFlowAnchor(ev, anchors);
            return true;
        },
        [&](std::vector<ShardLine> &lines) {
            stats.flowEvents = appendFlowEvents(anchors, lines);
        });
    stats.shards = merged.shards;
    stats.events = merged.lines;
    stats.tornShards = merged.tornShards;
    stats.tornLines = merged.tornLines;
    if (!merged.published)
        return stats;
    if (stats.flowEvents)
        Metrics::global().counter("trace.flow_events").add(
            stats.flowEvents);
    inform("trace: merged %zu events from %zu shards into %s%s",
           stats.events, stats.shards, tracePath().c_str(),
           stats.tornShards || stats.tornLines
               ? " (torn shards skipped)"
               : "");
    return stats;
}

} // namespace obs
} // namespace xps
