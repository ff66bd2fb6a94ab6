/**
 * @file
 * The xps-serve wire protocol (DESIGN.md §13.2): newline-delimited
 * JSON over a Unix-domain stream socket. One request line in, one
 * response line out, in request order per connection.
 *
 * Parsing is closed-world (obs/json): unknown ops, unknown or
 * repeated workload names, unknown configuration keys, and
 * configurations that fail checkFits() are rejected with an explicit
 * error response — client input is untrusted and must never fatal()
 * the daemon.
 *
 * Every compute request canonicalizes to a CsvManifest identity
 * (schema version, op, budget knobs, profile and config
 * fingerprints). That manifest is simultaneously the content-address
 * of the result store entry, the validation identity of the stored
 * CSV, and the coalescing key for duplicate in-flight requests.
 */

#ifndef XPS_SERVE_PROTOCOL_HH
#define XPS_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "util/csv.hh"
#include "workload/profile.hh"

namespace xps
{
namespace serve
{

/** Protocol schema version, embedded in every result identity. */
constexpr const char *kSchema = "xps-serve v1";

/** One parsed, validated client request. */
struct Request
{
    enum class Op
    {
        Ping,    ///< liveness probe, answered inline
        Stats,   ///< serve counters + queue depth, answered inline
        Metrics, ///< live counters + latency percentiles, inline
        Whatif,  ///< IPT of each workload on one configuration
        Matrix,  ///< workloads x configs IPT matrix
        Explore  ///< full per-workload exploration (annealing)
    };

    Op op = Op::Ping;
    std::string id;     ///< echoed in the response (client-chosen)
    std::string client; ///< fair-share identity; "anon" when absent
    /** Distributed-tracing request id (DESIGN.md §14): minted by
     *  xps-client (or the daemon when absent), stamped onto every
     *  span the request touches across client, daemon and worker.
     *  Deliberately NOT part of requestIdentity() — identical queries
     *  with different rids must still coalesce and cache-hit. */
    std::string rid;
    /** Wall-clock deadline for the compute job in seconds; 0 = use
     *  the server default (XPS_SERVE_DEADLINE_S). */
    double deadlineS = 0.0;

    std::vector<WorkloadProfile> workloads;
    std::vector<CoreConfig> configs; ///< whatif: exactly one
    uint64_t instrs = 20000;         ///< per-evaluation budget
    uint64_t saIters = 48;           ///< explore: annealing steps
    int rounds = 2;                  ///< explore: adoption rounds
    uint64_t seed = 7;               ///< explore: master seed

    bool isCompute() const
    {
        return op == Op::Whatif || op == Op::Matrix ||
               op == Op::Explore;
    }
};

/**
 * Parse and validate one request line. Returns false with a
 * human-readable `error` on any deviation from the closed world —
 * malformed JSON, unknown op/workload/config key, a repeated
 * workload, an out-of-range budget, or a configuration that violates
 * the timing model.
 */
bool parseRequest(const std::string &line, Request &req,
                  std::string &error);

/** Canonical identity of a compute request's result: the manifest
 *  stored in (and validated against) the result-store CSV. */
CsvManifest requestIdentity(const Request &req);

/** Stable 64-bit content key of an identity, as 16 hex digits —
 *  the result-store filename and the journal/coalescing key. */
std::string identityKey(const CsvManifest &identity);

/** The stable op name ("ping", "whatif", ...). */
const char *opName(Request::Op op);

// --- responses (single JSON lines, newline appended by the server) --

/** status:"ok" response carrying the result rows: each CSV row
 *  becomes one JSON object keyed by the CSV header. */
std::string okResponse(const std::string &id, const CsvDoc &doc,
                       bool cacheHit, bool degraded);

/** status:"error" — the request itself is at fault (parse error,
 *  unknown workload, infeasible config, failed job). */
std::string errorResponse(const std::string &id,
                          const std::string &message);

/** status:"overloaded" — admission control shed the request;
 *  `retryAfterS` is the client's backoff hint. */
std::string overloadedResponse(const std::string &id,
                               double retryAfterS);

/** status:"retry" — the daemon is draining; the job (if any) is
 *  journaled and will resume on the next boot. */
std::string shuttingDownResponse(const std::string &id);

} // namespace serve
} // namespace xps

#endif // XPS_SERVE_PROTOCOL_HH
