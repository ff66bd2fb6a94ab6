/**
 * @file
 * Structured JSON logging for the serve pipeline (DESIGN.md §14).
 *
 * When XPS_LOG_JSON names a file (or configureLogging() is called),
 * every process of a run appends structured log events — one JSON
 * object per line — to a per-pid shard `<log>.shards/log.<pid>.jsonl`
 * through the tracer's shard sink (obs/shard.hh): at most 16 KB
 * buffered, drained every ~250 ms. At exit the process that armed
 * logging merges every shard into one timestamp-sorted JSONL stream
 * at XPS_LOG_JSON, validating each line (obs/json.hh) and
 * counting-and-skipping torn tails exactly like the trace merger: a
 * worker killed mid-write can tear at most its own last line, never
 * the merged output. Once a shard is unwritable every later event is
 * dropped and counted in log.dropped_lines.
 *
 * Event schema (one line):
 *   {"ts": <monotonic µs, shared with the trace clock>,
 *    "level": "debug|info|warn|error", "component": "serve|pool|...",
 *    "msg": "...", "pid": N, "tid": N,
 *    "rid": "..."          — when a request context is set (tracer.hh)
 *    "fields": {...}}      — optional structured payload
 *
 * util/logging's inform()/warn()/verbose()/fatal() are bridged here
 * (component "log"), so the pre-existing ad-hoc stderr messages of
 * serve/procpool/explore land in the structured stream for free;
 * subsystems additionally emit field-rich events at their seams.
 *
 * Hot-path discipline: with logging disabled every call site costs
 * one predicted branch on a process-global flag (obs::log::enabled());
 * messages and fields are built lazily behind that branch.
 *
 * Rate limiting: at most XPS_LOG_RATE events per (component, level)
 * per second (default 200; 0 = unlimited). Excess events are counted
 * (log.suppressed) and summarized by one warn event per window, so a
 * crash loop cannot turn the log into its own outage.
 *
 * Knobs: XPS_LOG_JSON (merged path; arms logging), XPS_LOG_LEVEL
 * (debug|info|warn|error; default info), XPS_LOG_RATE (events per
 * component-level-second; default 200). XPS_TRACE_MERGE=0 (tracer.hh)
 * makes the log shard-only too: flush at exit but never merge — for
 * multi-process sessions where another process owns the merge, e.g.
 * xps-client against a daemon.
 */

#ifndef XPS_OBS_LOG_HH
#define XPS_OBS_LOG_HH

#include <cstddef>
#include <string>

#include "obs/tracer.hh" // Args: shared lazy field builder

namespace xps
{
namespace obs
{
namespace log
{

/** Severity, in ascending order; XPS_LOG_LEVEL is the floor. */
enum class Level
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
};

namespace detail
{
/** True iff structured logging is armed; the only cost when off. */
extern bool gEnabled;
/** The level floor as an int (events below it are dropped). */
extern int gMinLevel;

void emit(Level level, const char *component, const std::string &msg,
          std::string fieldsJson);
} // namespace detail

/** True iff logging is armed (one predicted branch when off). */
inline bool
enabled()
{
    return __builtin_expect(detail::gEnabled, 0);
}

/** Would an event at `level` be recorded right now? */
inline bool
levelEnabled(Level level)
{
    return enabled() &&
           static_cast<int>(level) >= detail::gMinLevel;
}

/** Record one structured event. No-op (one predicted branch) when
 *  logging is off or the level is below the floor. */
inline void
event(Level level, const char *component, const std::string &msg)
{
    if (levelEnabled(level))
        detail::emit(level, component, msg, std::string());
}

/** Args -> "{...}" / pass a prebuilt JSON object string through. */
inline std::string
toFieldsJson(const Args &args)
{
    return args.str();
}
inline std::string
toFieldsJson(std::string json)
{
    return json;
}

/** Record one structured event with lazily built fields: `fieldsFn`
 *  (returning obs::Args or a JSON-object string) only runs when the
 *  event will actually be recorded. */
template <typename FieldsFn>
inline void
event(Level level, const char *component, const std::string &msg,
      FieldsFn &&fieldsFn)
{
    if (levelEnabled(level))
        detail::emit(level, component, msg,
                     toFieldsJson(fieldsFn()));
}

/** The stable lower-case name of a level ("info", ...). */
const char *levelName(Level level);

/** Parse a level name; false (out unchanged) on garbage. */
bool parseLevel(const std::string &name, Level &out);

/** Outcome of merging log shards into the final stream. */
struct LogMergeStats
{
    size_t shards = 0;     ///< shard files merged
    size_t lines = 0;      ///< events in the merged stream
    size_t tornShards = 0; ///< shard files skipped entirely
    size_t tornLines = 0;  ///< invalid trailing/interior lines skipped
};

/**
 * Arm logging programmatically (tools and tests; production arms from
 * XPS_LOG_JSON at startup). Points the shard directory at
 * `<mergedPath>.shards/` and marks this process as the merger-at-exit.
 * `ratePerSec` 0 means the XPS_LOG_RATE default.
 */
void configureLogging(const std::string &mergedPath,
                      Level minLevel = Level::Info,
                      uint64_t ratePerSec = 0);

/** Disarm logging and drop any unflushed events (tests). */
void disableLogging();

/** Write this process's buffered events to its shard file. Called
 *  automatically on buffer pressure and by the worker-pool child
 *  right before _exit(). */
void flushLog();

/**
 * Flush, then merge every shard under the shard directory into the
 * merged JSONL stream (timestamp-sorted) and remove the shard
 * directory. Torn shards and lines are counted and skipped. Runs
 * automatically at exit in the arming process; disarms logging when
 * done so post-merge stragglers cannot recreate shards.
 */
LogMergeStats mergeLog();

/** The merged-output path ("" when logging is disarmed). */
std::string logPath();

} // namespace log
} // namespace obs
} // namespace xps

#endif // XPS_OBS_LOG_HH
