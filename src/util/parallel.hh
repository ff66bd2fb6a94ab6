/**
 * @file
 * The in-process thread pool: parallelFor() runs independent indexed
 * work items on a few threads and returns only when all of them are
 * done. Explorer rounds, the explorer's adoption waves and final
 * scores, and PerfMatrix::build all fan out through it; the forked,
 * supervised counterpart is util/procpool.hh.
 */

#ifndef XPS_UTIL_PARALLEL_HH
#define XPS_UTIL_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace xps
{

/**
 * Call fn(i) once for every i in [0, count), on min(threads, count)
 * threads that claim indices in increasing order; the calling thread
 * is one of them. With threads <= 1 or count <= 1 every call runs
 * inline on the calling thread, in index order, and no thread is
 * created. Every thread is joined before parallelFor returns, so a
 * caller may fork (ProcPool) right after it.
 *
 * Calls may run concurrently and in any order: fn must only touch
 * state that is private to its index or synchronized. If a call
 * throws, no further index is claimed, the calls already running
 * finish, and the first exception is rethrown on the calling thread
 * after every thread is joined.
 */
void parallelFor(size_t count, int threads,
                 const std::function<void(size_t)> &fn);

} // namespace xps

#endif // XPS_UTIL_PARALLEL_HH
