/**
 * @file
 * Deterministic fault injection (DESIGN.md §9). Named injection sites
 * compiled into the supervised execution paths — e.g.
 * XPS_FAULT_POINT("worker.start") — can be armed through the
 * XPS_FAULTS environment variable (or fault::armSchedule() in tests)
 * to raise a crash, a hang, a torn ("short") write, or an ENOSPC
 * failure at a precise, replayable moment:
 *
 *   XPS_FAULTS="site:kind:nth[:seed][,site:kind:nth[:seed]...]"
 *
 *   site   a registered name from fault::sites() (fatal on typos, so
 *          a misspelled schedule can never silently not fire)
 *   kind   crash | hang | shortwrite | enospc
 *   nth    fire on the nth visit of the site (1-based); 0 derives a
 *          pseudo-random nth in [1, 8] from `seed` and the site name
 *          (the nightly randomized fault campaign)
 *   seed   optional; only consulted when nth is 0
 *
 * Semantics:
 *   crash       _exit(kCrashExitCode) with no cleanup, like a SIGKILL
 *   hang        stop making progress (sleep loop) until killed — the
 *               supervisor's heartbeat/deadline machinery must reap it
 *   shortwrite  only at write-capable sites: the target file (or the
 *               result frame on a worker's pool pipe) is left torn, a
 *               truncated prefix, and the process then dies as for
 *               `crash`. At control sites it degrades to `crash`.
 *   enospc      only at write-capable sites: the write fails as if the
 *               disk were full (fatal(), exit code 1). Degrades to
 *               `crash` at control sites.
 *
 * Every arm fires at most ONCE per supervised run, coordinated across
 * forked workers through a shared anonymous mapping set up when the
 * schedule is armed (before the pool forks): a retried job does not
 * re-trip the fault its predecessor died on, which is what makes
 * "inject one fault, assert bit-identical results" testable end to
 * end. Visit counts are likewise shared, so `nth` counts visits
 * across the whole process tree in order of arrival.
 *
 * When no schedule is armed, a fault point costs a single predicted
 * branch on a process-global flag (the XPS_CHECK hook discipline,
 * DESIGN.md §8): perf_microbench is unchanged.
 */

#ifndef XPS_UTIL_FAULT_HH
#define XPS_UTIL_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace xps
{
namespace fault
{

/** What an armed fault does when it fires. */
enum class Kind
{
    None,       ///< not armed / not this visit
    Crash,      ///< die instantly, no cleanup
    Hang,       ///< stop making progress until killed
    ShortWrite, ///< tear the file being written, then die
    Enospc,     ///< fail the write as if the disk were full
};

/** One entry of the fault-site catalogue. */
struct Site
{
    const char *name; ///< dotted site name used at the fault point
    bool write;       ///< can realize ShortWrite/Enospc faithfully
};

/** The full catalogue of registered injection sites. Sites are
 *  registered centrally (fault.cc) so the catalogue is enumerable
 *  even before any site has been visited. */
const std::vector<Site> &sites();

/** Exit code of an injected crash (and of the death after a torn
 *  write), distinct from fatal()'s 1 so tests can tell them apart. */
constexpr int kCrashExitCode = 97;

namespace detail
{
/** True iff any arm is active; the only cost of an unarmed point. */
extern bool gArmed;
/** Slow path: count the visit, fire due arms. Never returns on
 *  crash/hang; returns ShortWrite/Enospc for write-capable sites. */
Kind fireSlow(const char *site);
} // namespace detail

/**
 * Visit a write-capable site and learn what to do. Crash and hang are
 * executed internally (the call does not return); ShortWrite/Enospc
 * are returned for the caller (atomicWriteFile, or
 * ProcPool::sendResult) to realize.
 */
inline Kind
fire(const char *site)
{
    if (__builtin_expect(detail::gArmed, 0))
        return detail::fireSlow(site);
    return Kind::None;
}

/** Visit a control site: crash/hang execute in place; armed
 *  shortwrite/enospc degrade to crash. One predicted branch unarmed. */
#define XPS_FAULT_POINT(site)                                          \
    do {                                                               \
        if (__builtin_expect(::xps::fault::detail::gArmed, 0))         \
            ::xps::fault::detail::fireSlow(site);                      \
    } while (0)

/**
 * (Re)arm a fault schedule from a spec string (the XPS_FAULTS
 * grammar above); the empty string disarms. Resets all shared
 * hit/fired state, so tests can arm one scenario per run. fatal()
 * on unknown sites or kinds, malformed counts, or too many arms.
 * Must be called before workers fork (the shared page is created
 * here); not thread-safe against concurrent fault points.
 */
void armSchedule(const std::string &spec);

/** The normalized active schedule ("" when disarmed) — log this next
 *  to a failure so the run can be replayed via XPS_FAULTS. */
std::string activeSchedule();

/** Faults fired so far, shared across the forked process tree. */
uint64_t firedCount();

/** Visits of one site so far (shared across the tree); only counted
 *  while a schedule is armed. Fatal on unknown site names. */
uint64_t hitCount(const std::string &site);

} // namespace fault
} // namespace xps

#endif // XPS_UTIL_FAULT_HH
