/**
 * @file
 * The closed-loop load of the serve workloads: N connections from one
 * process, each sending its next request as soon as the previous
 * answer arrives (no think time). Every answer is checked as it
 * arrives; a seeded sample is recomputed in process afterwards.
 */

#ifndef XPSBENCH_SERVE_LOAD_HH
#define XPSBENCH_SERVE_LOAD_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gen.hh"

namespace xpsbench
{

/** One answered (or failed) send. */
struct Sample
{
    size_t item = 0;
    std::string rid;
    uint64_t sendNs = 0;
    uint64_t recvNs = 0;
    bool ok = false;  ///< answered, well-formed and consistent
    bool hit = false; ///< "cache":"hit"
    std::string klass; ///< cold / hit / coalesced / explore / matrix / repeat

    double ms() const { return static_cast<double>(recvNs - sendNs) / 1e6; }
};

/**
 * The first answer of every group, against which every later answer
 * must be byte-identical in `results`.
 */
class AnswerBook
{
  public:
    /** Record or compare; false (with `error`) on a mismatch. */
    bool check(size_t group, const std::string &results,
               std::string &error);
    /** Groups with an answer, and the answer. */
    std::map<size_t, std::string> answers() const;

  private:
    mutable std::mutex mutex_;
    std::map<size_t, std::string> first_;
};

/** Counts of one phase. */
struct PhaseCount
{
    uint64_t sent = 0;
    uint64_t succeeded = 0;
    uint64_t failed = 0;
};

struct LoadRun
{
    std::vector<Sample> samples; ///< timed-window sends only
    PhaseCount warmup;
    PhaseCount timed;
    uint64_t windowBeginNs = 0;
    uint64_t windowEndNs = 0;
    size_t completedInWindow = 0;
    std::vector<std::string> errors; ///< first few failures
};

/**
 * Drive `load` against the daemon at `socket` over `connections`
 * closed-loop connections for `warmupS` (unmeasured) then `seconds`.
 * `ridPrefix` makes this run's request ids unique. Every answer is
 * checked against the group's request and `book`.
 */
LoadRun runClosedLoop(const std::string &socket, const Load &load,
                      int connections, double warmupS, double seconds,
                      const std::string &ridPrefix, AnswerBook &book);

/**
 * Recompute a seeded sample of `count` answered groups of operation
 * `op` in process — simulate() for whatif, PerfMatrix::build for
 * matrix, Explorer::exploreAll with the serve options for explore —
 * and compare with the served answers. Returns the phase count;
 * mismatches are appended to `errors`.
 */
PhaseCount recomputeSample(const Load &load, const AnswerBook &book,
                           Op op, size_t count, uint64_t seed,
                           std::vector<std::string> &errors);

/** Digest over every group's first answer, in group order. */
uint64_t answerDigest(const AnswerBook &book);

} // namespace xpsbench

#endif // XPSBENCH_SERVE_LOAD_HH
