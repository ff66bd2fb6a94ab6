/**
 * @file
 * The xps-serve daemon (DESIGN.md §13): a single-threaded Unix-
 * domain-socket event loop that multiplexes client connections over
 * the incremental ProcPool engine. Every compute request flows
 *
 *   parse (closed world) -> store lookup -> coalesce -> admission
 *   -> journal(accepted) -> fair-share dispatch -> journal(started)
 *   -> forked worker -> validate -> publish -> journal(completed)
 *   -> respond -> journal remove
 *
 * Robustness layers:
 *  - admission control: a bounded queue (XPS_SERVE_QUEUE_MAX) with
 *    least-recently-served fair-share ordering per client; overflow
 *    is shed with an explicit `overloaded` + retry-after hint;
 *  - crash safety: the job journal makes a SIGKILL'd daemon resume
 *    exactly its outstanding jobs on the next boot, and the content-
 *    addressed store turns the publish/remove crash window into a
 *    cache hit instead of a duplicate;
 *  - graceful drain: SIGTERM stops admissions, finishes running jobs
 *    within XPS_SERVE_DRAIN_S, leaves the rest journaled, flushes
 *    metrics/trace, removes socket and pidfile, exits
 *    kGracefulExitCode;
 *  - boot hygiene: stale-socket/pidfile takeover (a live daemon on
 *    the same socket is fatal; a dead one is swept) and orphaned
 *    journal-temp sweeping.
 *
 * Fault sites serve.accept / serve.journal / serve.publish /
 * serve.respond make every one of these seams injectable.
 */

#ifndef XPS_SERVE_SERVER_HH
#define XPS_SERVE_SERVER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/result_store.hh"
#include "util/procpool.hh"

namespace xps
{
namespace serve
{

/** Daemon policy, resolved from the environment by fromEnv(). */
struct ServerOptions
{
    /** Socket path (XPS_SERVE_SOCKET; default
     *  $XPS_RESULTS_DIR/xps-serve.sock). Must fit sun_path. */
    std::string socketPath;
    /** State directory (XPS_SERVE_DIR; default
     *  $XPS_RESULTS_DIR/serve): store/, journal/, staging/ live
     *  under it. */
    std::string stateDir;
    /** Max queued-but-not-started jobs before shedding
     *  (XPS_SERVE_QUEUE_MAX). */
    size_t queueMax = 16;
    /** Default per-job wall-clock deadline in seconds when the
     *  request carries none (XPS_SERVE_DEADLINE_S; 0 = unlimited). */
    double defaultDeadlineS = 0.0;
    /** Drain budget after SIGTERM (XPS_SERVE_DRAIN_S). */
    double drainS = 5.0;
    /** Concurrent compute workers (XPS_SERVE_WORKERS; <=0:
     *  resolveThreads()). */
    int workers = 2;
    /** Worker supervision (shared with the one-shot pipeline knobs
     *  XPS_HEARTBEAT_S / XPS_JOB_RETRIES). */
    double heartbeatTimeoutSeconds = 30.0;
    int maxAttempts = 3;
    /** Annealing checkpoint cadence for explore jobs, so a SIGKILL'd
     *  daemon's re-run resumes instead of restarting
     *  (XPS_SERVE_CKPT_EVERY; 0 disables). */
    uint64_t checkpointEvery = 8;
    /** Cadence in seconds for writing a Prometheus text-exposition
     *  snapshot to <stateDir>/metrics.prom (XPS_METRICS_EXPORT_S;
     *  0 disables). Written atomically (tmp + rename), so a scraper
     *  never reads a torn file. */
    double metricsExportS = 0.0;

    static ServerOptions fromEnv();
};

/** The daemon. Construct, then run() until drain; single-threaded. */
class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Boot (takeover, sweep, journal recovery) unless step() already
     * did, then serve until a stop is requested (util/shutdown.hh).
     * Returns the process exit code: kGracefulExitCode after a clean
     * drain.
     */
    int run();

    /** One event-loop iteration (exposed for tests driving the loop
     *  manually; run() is this in a loop). Waits up to `timeoutMs`
     *  for a client, a new connection or a worker to stir; a worker
     *  exit is reaped and answered in the same call. */
    void step(int timeoutMs);

    const std::string &socketPath() const { return opts_.socketPath; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Connection
    {
        int fd;
        std::string buf; ///< unparsed request bytes
    };

    /** One admitted compute job and everyone waiting on it. */
    struct Job
    {
        uint64_t seq = 0;
        std::string key;
        Request req;
        CsvManifest identity;
        std::string requestLine;
        std::string resultPath; ///< staging file the worker publishes
        /** (connection fd, request id) of every coalesced waiter;
         *  recovered jobs start with none. */
        std::vector<std::pair<int, std::string>> waiters;
        bool started = false;
        uint64_t ticket = 0;
        Clock::time_point accepted;
    };

    void boot();
    void takeoverSocket();
    void recoverJournal();
    void acceptClient();
    void readClient(size_t idx);
    void closeClient(size_t idx);
    void closeInheritedFds();
    void handleLine(int fd, const std::string &line);
    void handleCompute(int fd, const Request &req,
                       const std::string &line);
    void dispatch();
    void harvest();
    void respond(int fd, const std::string &payload);
    bool connected(int fd) const;
    void answerWaiters(Job &job, const std::string &payload);
    std::string statsResponse(const std::string &id) const;
    std::string metricsResponse(const std::string &id) const;
    void journalRecord(const JournalRecord &rec);
    void maybeExportMetrics(bool force);
    ProcJob makeProcJob(Job &job);
    int drain();

    ServerOptions opts_;
    ProcPool pool_;
    ResultStore store_;
    Journal journal_;
    int listenFd_ = -1;
    std::vector<Connection> conns_;
    std::vector<Job> jobs_; ///< queued + running, admission order
    size_t started_ = 0;    ///< jobs dispatched and not yet harvested
    /** Fair share: when each client was last served (by seq). */
    std::map<std::string, uint64_t> lastServed_;
    bool booted_ = false;
    /** Daemon-minted request ids for clients that sent none. */
    uint64_t ridCounter_ = 0;
    Clock::time_point lastMetricsExport_{};
};

} // namespace serve
} // namespace xps

#endif // XPS_SERVE_SERVER_HH
