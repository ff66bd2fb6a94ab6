/**
 * @file
 * Crash-safe file writes. A plain ofstream truncates the target in
 * place, so a crash mid-write leaves a torn file that later readers
 * half-parse. atomicWriteFile() writes a temporary sibling, fsyncs it,
 * and rename()s it over the target — readers see either the old
 * complete file or the new complete file, never a mixture. Used by
 * writeCsv(), the exploration checkpoints and the metrics dump.
 */

#ifndef XPS_UTIL_ATOMIC_FILE_HH
#define XPS_UTIL_ATOMIC_FILE_HH

#include <string>

namespace xps
{

/**
 * Atomically replace `path` with `content`: write a staging sibling
 * `path.tmp.<pid>.<nonce>`, fsync it, rename it over `path`, and
 * fsync the parent directory so the rename itself survives a power
 * cut. The random nonce keeps a recycled pid from colliding with a
 * dead writer's staging file; staging files left behind by writers
 * that crashed mid-call (their pid no longer exists) are swept before
 * staging. Parent directories are created as needed. fatal() on any
 * I/O error.
 *
 * `faultSite`, when non-null, names a fault-injection site visited
 * before the write (util/fault.hh): an armed `shortwrite` tears the
 * published file and dies, an armed `enospc` fails the write as if
 * the disk were full. Production callers on supervised paths pass
 * their site name; everyone else pays nothing (nullptr).
 */
void atomicWriteFile(const std::string &path, const std::string &content,
                     const char *faultSite = nullptr);

/** Remove from `dir` the staging files of atomicWriteFile() calls
 *  whose writer died mid-write: those of file `name`, or of every
 *  file when `name` is empty. */
void sweepStaleTemps(const std::string &dir, const std::string &name);

/** Read a whole file into `out`; false if it cannot be opened. */
bool readFile(const std::string &path, std::string &out);

} // namespace xps

#endif // XPS_UTIL_ATOMIC_FILE_HH
