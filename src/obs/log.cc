#include "obs/log.hh"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>

#include "obs/json.hh"
#include "obs/shard.hh"
#include "util/env.hh"
#include "util/metrics.hh"

namespace xps
{
namespace obs
{
namespace log
{

namespace detail
{
bool gEnabled = false;
int gMinLevel = static_cast<int>(Level::Info);
} // namespace detail

namespace
{

/** One rate-limit window per (component, level). */
struct RateWindow
{
    uint64_t startNs = 0;
    uint64_t count = 0;
    uint64_t suppressed = 0;
};

/** Events per (component, level) per second; 0 = unlimited. */
std::atomic<uint64_t> gRatePerSec{200};

/** Touched only under the sink lock (inside append()) or by the
 *  sink's reset, which clears it on arm, disarm and fork. */
std::map<std::string, RateWindow> &
windows()
{
    static auto *w = new std::map<std::string, RateWindow>();
    return *w;
}

/**
 * Logs are cold relative to spans: a small buffer keeps the tail a
 * crash can lose short without measurable write amplification.
 * Internal diagnostics use std::fprintf (in the sink), never inform()/
 * warn(): those are bridged back into this logger.
 */
ShardSink &
sink()
{
    static ShardSink *s = new ShardSink(ShardStream{
        .name = "log",
        .prefix = "log",
        .bufferBytes = 16 * 1024,
        .dropped = "log.dropped_lines",
        .merged = "log.lines_merged",
        .head = "",
        .separator = "",
        .tail = "",
        .armed = &detail::gEnabled,
        .mergeAtExit = [] { mergeLog(); },
        .reset = [] { windows().clear(); },
    });
    return *s;
}

/** Arm from the environment on program start-up, like the tracer:
 *  no call sites to sprinkle, one knob to flip. */
const bool gEnvArmed = [] {
    const std::string path = envString("XPS_LOG_JSON", "");
    if (path.empty())
        return false;
    Level level = Level::Info;
    const std::string name = envString("XPS_LOG_LEVEL", "info");
    if (!parseLevel(name, level))
        std::fprintf(stderr,
                     "[warn] XPS_LOG_LEVEL: unknown level '%s'; "
                     "using info\n", name.c_str());
    configureLogging(path, level);
    return true;
}();

} // namespace

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Debug: return "debug";
      case Level::Info: return "info";
      case Level::Warn: return "warn";
      case Level::Error: return "error";
    }
    return "info";
}

bool
parseLevel(const std::string &name, Level &out)
{
    if (name == "debug")
        out = Level::Debug;
    else if (name == "info")
        out = Level::Info;
    else if (name == "warn")
        out = Level::Warn;
    else if (name == "error")
        out = Level::Error;
    else
        return false;
    return true;
}

namespace detail
{

void
emit(Level level, const char *component, const std::string &msg,
     std::string fieldsJson)
{
    // The trace clock (including its test shim): log and span
    // timestamps line up in post-mortems by construction.
    const uint64_t tsNs = obs::detail::nowNs();
    // The request context (tracer.cc) is guarded by its own leaf
    // mutex; read it before the sink lock so lock order stays trivial.
    const std::string rid = requestContext();
    const int pid = static_cast<int>(::getpid());

    sink().append(tsNs, [&](std::string &out) {
        // Rate limit per (component, level): a crash loop must not
        // turn the log into its own outage. Window roll emits one
        // summary.
        const uint64_t ratePerSec = gRatePerSec.load();
        if (ratePerSec > 0) {
            RateWindow &w = windows()[std::string(component) + "/" +
                                      levelName(level)];
            if (tsNs - w.startNs >= 1000ull * 1000 * 1000) {
                if (w.suppressed > 0) {
                    char line[256];
                    std::snprintf(
                        line, sizeof(line),
                        "{\"ts\":%.3f,\"level\":\"warn\",\"component\":"
                        "\"log\",\"msg\":\"rate limit: suppressed %llu "
                        "event(s) from %s\",\"pid\":%d,\"tid\":%u}\n",
                        static_cast<double>(tsNs) / 1000.0,
                        static_cast<unsigned long long>(w.suppressed),
                        component, pid, threadId());
                    out += line;
                }
                w.startNs = tsNs;
                w.count = 0;
                w.suppressed = 0;
            }
            if (++w.count > ratePerSec) {
                ++w.suppressed;
                Metrics::global().counter("log.suppressed").add();
                return;
            }
        }

        char head[128];
        const int head_len = std::snprintf(
            head, sizeof(head), "{\"ts\":%.3f,\"level\":\"%s\",",
            static_cast<double>(tsNs) / 1000.0, levelName(level));
        out.append(head, static_cast<size_t>(head_len));
        out += "\"component\":\"";
        out += json::escape(component);
        out += "\",\"msg\":\"";
        out += json::escape(msg);
        out += "\"";
        char mid[64];
        const int mid_len = std::snprintf(
            mid, sizeof(mid), ",\"pid\":%d,\"tid\":%u", pid, threadId());
        out.append(mid, static_cast<size_t>(mid_len));
        if (!rid.empty()) {
            out += ",\"rid\":\"";
            out += json::escape(rid);
            out += "\"";
        }
        if (!fieldsJson.empty()) {
            out += ",\"fields\":";
            out += fieldsJson;
        }
        out += "}\n";
    });
}

} // namespace detail

void
configureLogging(const std::string &mergedPath, Level minLevel,
                 uint64_t ratePerSec)
{
    gRatePerSec = ratePerSec > 0 ? ratePerSec
                                 : envUInt("XPS_LOG_RATE", 200);
    detail::gMinLevel = static_cast<int>(minLevel);
    sink().arm(mergedPath);
}

void
disableLogging()
{
    sink().disarm();
}

void
flushLog()
{
    sink().flush();
}

std::string
logPath()
{
    return sink().mergedPath();
}

LogMergeStats
mergeLog()
{
    const ShardMergeStats merged =
        sink().merge([](const json::Value &ev) {
            return ev.find("level") && ev.find("msg");
        });
    LogMergeStats stats;
    stats.shards = merged.shards;
    stats.lines = merged.lines;
    stats.tornShards = merged.tornShards;
    stats.tornLines = merged.tornLines;
    return stats;
}

} // namespace log
} // namespace obs
} // namespace xps
