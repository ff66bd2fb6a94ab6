/**
 * @file
 * The traced layer budget: per-layer metrics computed from outside
 * the program — from the merged trace (spans joined across processes
 * by request id), from the counters/timers/histograms the program
 * already keeps, and from the benchmark's own timing of its calls.
 */

#ifndef XPSBENCH_BUDGET_HH
#define XPSBENCH_BUDGET_HH

#include <functional>
#include <string>
#include <vector>

#include "bench.hh"
#include "gen.hh"
#include "serve_load.hh"
#include "spans.hh"

namespace xpsbench
{

/** Metric lookup by name (counter delta, timer delta, or p50 ns). */
using Lookup = std::function<double(const std::string &)>;

/**
 * Layers visible in any traced run: ProcPool hand-off, atomic file
 * writes, simulation, trace generation/decode, exploration phases.
 * `ops` normalizes util.atomic_write_ms (requests, or pipelines).
 */
void traceLayers(const Trace &trace, double ops, MetricMap &out);

/** Layers read from the program's own counters, timers and
 *  histogram p50s. */
void counterLayers(const Lookup &counter, const Lookup &timer,
                   const Lookup &p50Ns, MetricMap &out);

/** Per-request budget of one traced serve run. */
struct RequestBudget
{
    size_t requests = 0;     ///< non-coalesced answers with both ends traced
    double loopSelfMs = 0.0; ///< mean daemon envelope minus child spans
    double residualMs = 0.0; ///< mean client latency outside the envelope
    /** Per-class means over the same requests. */
    struct Class
    {
        size_t n = 0;
        double latencyMs = 0.0;
        double queueMs = 0.0;
        double simMs = 0.0;
        double exploreMs = 0.0;
        double envelopeMs = 0.0;
    };
    std::map<std::string, Class> classes;
};

/**
 * Join client samples with daemon and worker spans by rid: the daemon
 * envelope of a request runs from its serve.request instant to the
 * end of its first serve.respond span. Coalesced joins (whose reply
 * is stamped with the originator's rid) are left out.
 */
RequestBudget requestBudget(const Trace &trace,
                            const std::vector<Sample> &samples);

/** Serve-layer metrics of a traced serve run. `sends` counts every
 *  compute request sent to the traced daemon. */
void serveLayers(const Trace &trace, const std::vector<Sample> &samples,
                 const RequestBudget &budget, double sends,
                 double coalesced, double shed, MetricMap &out);

/** Every per-layer metric set to 0 (a layer a workload never runs). */
MetricMap zeroLayers();

} // namespace xpsbench

#endif // XPSBENCH_BUDGET_HH
