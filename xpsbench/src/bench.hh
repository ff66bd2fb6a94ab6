/**
 * @file
 * Shared vocabulary of the xpsbench load generator: the monotonic
 * clock (the same CLOCK_MONOTONIC epoch the tracer stamps spans with,
 * so client-side request times line up with daemon and worker spans),
 * metric maps, and the failure path that names the workload and step.
 */

#ifndef XPSBENCH_BENCH_HH
#define XPSBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace xpsbench
{

/** Monotonic nanoseconds, comparable with trace-event timestamps. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Metric name -> measured value (units live in the spec table). */
using MetricMap = std::map<std::string, double>;

/** Workload and step that a failure message names. */
void setStep(const std::string &workload, const std::string &step);

/** "xpsbench: <workload>: <step>" of the current step; a static
 *  buffer, so signal handlers may write() it. */
const char *stepLabel();

/** Print "xpsbench: <workload>: <step>: <message>" to stderr, tear
 *  down every child process, and exit 1 without printing a result. */
[[noreturn]] void fail(const std::string &message);

/** SIGKILL and reap every child process group spawn() started and
 *  nobody has reaped yet (idempotent, async-signal-safe). */
void killChildren();

} // namespace xpsbench

#endif // XPSBENCH_BENCH_HH
