/**
 * @file
 * The crash-safe job journal (DESIGN.md §13.3). Every admitted
 * compute job owns one record file `job.<key>.json` in the journal
 * directory, written once, atomically (util/atomic_file, fault site
 * `serve.journal`), when the job is admitted, and removed once its
 * waiters are answered. A record is the request line and its
 * admission sequence number; there are no states to advance.
 *
 * On boot, recover() sweeps orphaned staging temps left by a dead
 * writer (mirroring atomicWriteFile's own sweep), skips-and-removes
 * torn records — not JSON, no key, or a `seq` that is not a whole
 * number in range (a crash mid-rename can leave pre-v1 garbage;
 * atomic writes make this near-impossible, but the reader never
 * trusts it),
 * and returns the rest ordered by admission sequence. The daemon
 * re-enqueues each one whose result is not in the store yet (a
 * worker publishes before it reports back), so a SIGKILL'd daemon
 * resumes exactly the jobs it owed, and a crash between publish and
 * record removal costs a store lookup, never a recompute.
 */

#ifndef XPS_SERVE_JOURNAL_HH
#define XPS_SERVE_JOURNAL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace xps
{
namespace serve
{

/** One journal record, as persisted. */
struct JournalRecord
{
    std::string key;  ///< result-store content key (16 hex digits)
    uint64_t seq = 0; ///< admission order, monotonic across boots
    /** The original request line, verbatim — recovery re-parses it
     *  through the same closed-world parser as live traffic. */
    std::string request;
};

/** The journal directory manager. Single-threaded, like the daemon. */
class Journal
{
  public:
    explicit Journal(std::string dir);

    /** Persist a record (atomic write; fault site serve.journal). */
    void record(const JournalRecord &rec);

    /** Remove a job's record (after every waiter is answered).
     *  Missing file is fine. */
    void remove(const std::string &key);

    /**
     * Boot-time recovery: sweep dead writers' temps, drop torn
     * records, and return the rest sorted by seq. Also primes
     * nextSeq() past everything ever journaled.
     */
    std::vector<JournalRecord> recover();

    /** The next admission sequence number (monotonic across boots
     *  once recover() has run). */
    uint64_t nextSeq() { return seq_++; }

  private:
    std::string path(const std::string &key) const;

    std::string dir_;
    uint64_t seq_ = 1;
};

} // namespace serve
} // namespace xps

#endif // XPS_SERVE_JOURNAL_HH
