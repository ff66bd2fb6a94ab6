/**
 * @file
 * One-call simulation facade: profile + configuration -> SimStats.
 * This is the evaluation primitive that the annealer, the
 * cross-configuration matrix and the examples all share.
 */

#ifndef XPS_SIM_SIMULATOR_HH
#define XPS_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>

#include "sim/config.hh"
#include "sim/sim_stats.hh"
#include "workload/profile.hh"

namespace xps
{

class TraceBuffer;
class InvariantChecker;

/** Options for one simulation run. */
struct SimOptions
{
    /** Committed instructions in the measurement window. */
    uint64_t measureInstrs = 100000;
    /** Functional-warmup instructions (caches/predictor train with
     *  no timing; cheap). Default: same as the measurement window. */
    uint64_t warmupInstrs = UINT64_MAX; ///< UINT64_MAX = measure
    /** Decorrelates the workload stream across runs. */
    uint64_t streamId = 0;
    /**
     * Optional pre-generated trace (see workload/trace.hh). When set,
     * the stream is replayed from the shared buffer instead of being
     * regenerated — bit-identical results, an order of magnitude less
     * per-evaluation work. The buffer must match (profile, streamId)
     * and hold traceOps() plus the core's in-flight capacity
     * (OooCore::inFlightCapacity(): its ROB and fetch buffer, at most
     * 1 224 ops in the search space), or the run is fatal before its
     * first cycle; sharedTrace(profile, streamId, traceOps()) adds
     * that slack. Leave it null to generate the stream instead.
     */
    std::shared_ptr<const TraceBuffer> trace;

    /**
     * Structural invariant checking (src/check, DESIGN.md §8).
     * `checker` attaches a caller-owned accumulating checker (the
     * differential fuzzer inspects it after the run). When it is
     * null, `check = true` — or XPS_CHECK=1 in the environment —
     * makes simulate() run under an internal fail-fast checker that
     * panics on the first violation. Default: no checking, and the
     * core pays only a null-pointer test per hook site.
     */
    InvariantChecker *checker = nullptr;
    bool check = false;

    uint64_t
    effectiveWarmup() const
    {
        return warmupInstrs == UINT64_MAX ? measureInstrs
                                          : warmupInstrs;
    }

    /** Micro-ops the run commits or warms up on: a trace holds this
     *  plus the core's in-flight capacity (see `trace`). */
    uint64_t
    traceOps() const
    {
        return measureInstrs + effectiveWarmup();
    }
};

/**
 * Simulate `profile` on `config`. Deterministic for fixed arguments,
 * and independent of whether `opts.trace` is set. The configuration
 * is validated against the default technology's timing model (fatal
 * if any unit does not fit its stage budget).
 */
SimStats simulate(const WorkloadProfile &profile,
                  const CoreConfig &config,
                  const SimOptions &opts = SimOptions{});

} // namespace xps

#endif // XPS_SIM_SIMULATOR_HH
