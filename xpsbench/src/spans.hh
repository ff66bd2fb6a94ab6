/**
 * @file
 * Reader for the merged Chrome/Perfetto trace the program writes at
 * XPS_TRACE_JSON, plus the interval arithmetic of the layer budget:
 * union coverage, self time, and request-scoped joins across
 * processes by the `rid` every event of a request carries.
 */

#ifndef XPSBENCH_SPANS_HH
#define XPSBENCH_SPANS_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"

namespace xpsbench
{

/** One complete span ("ph":"X") or instant ("ph":"i"). */
struct Event
{
    std::string name;
    std::string rid;
    char ph = 'X';
    int pid = 0;
    unsigned tid = 0;
    double tsUs = 0.0;
    double durUs = 0.0;
    xps::obs::json::Value args;

    double endUs() const { return tsUs + durUs; }
    double argNumber(const char *key, double def = 0.0) const;
    std::string argString(const char *key) const;
};

/** Spans and instants of one merged trace. */
struct Trace
{
    std::vector<Event> spans;
    std::vector<Event> instants;

    /** Parse one event line of a merged trace; false for lines that
     *  are not spans or instants (metadata, flow events, brackets). */
    static bool parseLine(const std::string &line, Event &out);

    /** Load a merged trace file; false with `error` when unreadable. */
    bool load(const std::string &path, std::string &error);

    std::vector<const Event *> named(const std::string &name) const;
    size_t countInstants(const std::string &name) const;
    /** Sum of the durations of every span named `name`, in µs. */
    double totalUs(const std::string &name) const;
    /** Sum over spans named `name` of their self time: duration minus
     *  the part covered by spans nested inside them on the same
     *  process and thread. */
    double totalSelfUs(const std::string &name) const;
};

using Interval = std::pair<double, double>;

/** Length of the union of `intervals` clipped to [begin, end]. */
double coveredUs(double begin, double end,
                 std::vector<Interval> intervals);

/** `[begin, end]` minus the part the children cover (children may
 *  overlap each other and stick out of the interval). */
double selfUs(double begin, double end,
              const std::vector<const Event *> &children);

/**
 * Spans grouped by request id across every process of the trace.
 * pool.attempt spans are emitted by the supervising process outside
 * any request scope; each adopts the rid of the pool.job span that
 * ran in its worker_pid.
 */
std::map<std::string, std::vector<const Event *>>
spansByRid(const Trace &trace);

/** Instants grouped by request id (first occurrence per name wins
 *  in lookups by the caller). */
std::map<std::string, std::vector<const Event *>>
instantsByRid(const Trace &trace);

} // namespace xpsbench

#endif // XPSBENCH_SPANS_HH
