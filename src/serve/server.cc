#include "serve/server.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "comm/perf_matrix.hh"
#include "explore/explorer.hh"
#include "explore/supervisor.hh"
#include "obs/json.hh"
#include "obs/log.hh"
#include "obs/tracer.hh"
#include "sim/simulator.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/shutdown.hh"
#include "workload/trace.hh"

namespace xps
{
namespace serve
{

namespace fs = std::filesystem;

namespace
{

/** %.17g round-trips a double exactly, so identical computations
 *  yield byte-identical CSV cells and responses. */
std::string
fmtDouble(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

/** True when a result carries a quarantined (missing) row. */
bool
isDegraded(const CsvDoc &doc)
{
    size_t status = SIZE_MAX;
    for (size_t c = 0; c < doc.header.size(); ++c) {
        if (doc.header[c] == "status")
            status = c;
    }
    if (status == SIZE_MAX)
        return false;
    for (const auto &row : doc.rows) {
        if (row[status] != "ok")
            return true;
    }
    return false;
}

// --- worker bodies (run in a forked pool child) ---------------------

CsvDoc
runWhatif(const Request &req)
{
    CsvDoc doc;
    doc.header = {"workload", "ipt"};
    SimOptions sim;
    sim.measureInstrs = req.instrs;
    for (const WorkloadProfile &p : req.workloads) {
        ProcPool::beat();
        // Replay the trace file some earlier job most likely published
        // already; a trace too long to share streams instead.
        sim.trace = fileBackedTrace(p, sim.streamId, sim.traceOps());
        const SimStats stats = simulate(p, req.configs[0], sim);
        doc.rows.push_back({p.name, fmtDouble(stats.ipt())});
    }
    return doc;
}

CsvDoc
runMatrix(const Request &req, const ServerOptions &opts)
{
    // Nested supervision: this worker forks one grandchild per row,
    // so a crashing cell costs a retry and a repeatedly failing row
    // is quarantined — marked in the result, never silently dropped.
    SupervisorOptions sup_opts;
    sup_opts.workers = 1;
    sup_opts.heartbeatTimeoutSeconds = opts.heartbeatTimeoutSeconds;
    sup_opts.maxAttempts = opts.maxAttempts;
    sup_opts.backoffBaseSeconds = 0.01;
    sup_opts.backoffCapSeconds = 0.1;
    Supervisor sup(sup_opts);
    std::vector<std::string> missing;
    const PerfMatrix matrix = PerfMatrix::build(
        req.workloads, req.configs, req.instrs, sup, "", &missing);
    CsvDoc doc;
    doc.header = {"workload", "config", "ipt", "status"};
    for (size_t w = 0; w < req.workloads.size(); ++w) {
        const bool miss = std::find(missing.begin(), missing.end(),
                                    req.workloads[w].name) !=
                          missing.end();
        for (size_t c = 0; c < req.configs.size(); ++c) {
            doc.rows.push_back(
                {req.workloads[w].name, std::to_string(c),
                 miss ? "nan" : fmtDouble(matrix.ipt(w, c)),
                 miss ? "missing" : "ok"});
        }
    }
    return doc;
}

CsvDoc
runExplore(const Request &req, const ServerOptions &opts,
           const std::string &ckptDir)
{
    ExplorerOptions eopts = exploreOptions(req);
    // The journal makes a killed daemon re-run this job; the annealer
    // checkpoints make the re-run resume bit-identically instead of
    // paying the whole exploration again.
    eopts.checkpointEvery = opts.checkpointEvery;
    eopts.checkpointDir = ckptDir;
    Explorer explorer(req.workloads, eopts);
    const std::vector<WorkloadResult> results = explorer.exploreAll();
    CsvDoc doc;
    doc.header = {"workload", "ipt"};
    const auto cfg_header = CoreConfig::csvHeader();
    doc.header.insert(doc.header.end(), cfg_header.begin(),
                      cfg_header.end());
    for (const WorkloadResult &r : results) {
        std::vector<std::string> row = {r.workload,
                                        fmtDouble(r.bestIpt)};
        const auto cfg_row = r.best.toCsvRow();
        row.insert(row.end(), cfg_row.begin(), cfg_row.end());
        doc.rows.push_back(std::move(row));
    }
    return doc;
}

} // namespace

ServerOptions
ServerOptions::fromEnv()
{
    ServerOptions opts;
    const std::string base = Budget::get().resultsDir;
    opts.socketPath =
        envString("XPS_SERVE_SOCKET", base + "/xps-serve.sock");
    opts.stateDir = envString("XPS_SERVE_DIR", base + "/serve");
    opts.queueMax = envUInt("XPS_SERVE_QUEUE_MAX", 16);
    opts.defaultDeadlineS = static_cast<double>(
        envUInt("XPS_SERVE_DEADLINE_S", 0));
    opts.drainS =
        static_cast<double>(envUInt("XPS_SERVE_DRAIN_S", 5));
    opts.workers =
        static_cast<int>(envInt("XPS_SERVE_WORKERS", 2));
    // One reading of the supervision knobs for daemon and pipeline.
    const SupervisorOptions supervision = SupervisorOptions::fromEnv();
    opts.heartbeatTimeoutSeconds = supervision.heartbeatTimeoutSeconds;
    opts.maxAttempts = supervision.maxAttempts;
    opts.checkpointEvery = envUInt("XPS_SERVE_CKPT_EVERY", 8);
    // Fractional cadences matter here (CI scrapes fast test runs),
    // so this knob alone parses as a double.
    opts.metricsExportS = envDouble("XPS_METRICS_EXPORT_S", 0.0);
    return opts;
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      pool_([&] {
          ProcPoolOptions p;
          p.workers = opts_.workers;
          p.heartbeatTimeoutSeconds = opts_.heartbeatTimeoutSeconds;
          p.maxAttempts = opts_.maxAttempts;
          p.backoffBaseSeconds = 0.02;
          p.backoffCapSeconds = 0.5;
          return p;
      }()),
      store_(opts_.stateDir + "/store"),
      journal_(opts_.stateDir + "/journal")
{
    // A client that disconnects mid-response must cost an EPIPE
    // errno, not the daemon's life.
    ::signal(SIGPIPE, SIG_IGN);
    // Every job worker inherits this: the first to need a trace
    // publishes it under the state directory, and the rest map it.
    setTraceDirectory(opts_.stateDir + "/traces");
}

Server::~Server()
{
    setTraceDirectory("");
    for (const Connection &c : conns_)
        ::close(c.fd);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        std::error_code ec;
        fs::remove(opts_.socketPath, ec);
        fs::remove(opts_.socketPath + ".pid", ec);
    }
}

void
Server::closeInheritedFds()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
    for (const Connection &c : conns_)
        ::close(c.fd);
}

namespace
{

/** Liveness for pidfile takeover. kill(pid, 0) alone is not enough:
 *  it succeeds for zombies, and a SIGKILL'd daemon whose parent has
 *  not reaped it yet would block its own successor forever. A zombie
 *  owns no socket — treat it as dead. */
bool
pidIsRunning(long pid)
{
    if (::kill(static_cast<pid_t>(pid), 0) != 0)
        return false;
    std::string stat;
    if (!readFile("/proc/" + std::to_string(pid) + "/stat", stat))
        return true; // no procfs to refine the kill() verdict
    // State is the first field after the parenthesised comm (which
    // may itself contain spaces and parens).
    const size_t paren = stat.rfind(')');
    for (size_t i = paren == std::string::npos ? 0 : paren + 1;
         i < stat.size(); ++i) {
        if (stat[i] == ' ')
            continue;
        return stat[i] != 'Z';
    }
    return true;
}

} // namespace

void
Server::takeoverSocket()
{
    const std::string pidfile = opts_.socketPath + ".pid";
    std::string content;
    if (readFile(pidfile, content)) {
        const long pid = std::strtol(content.c_str(), nullptr, 10);
        if (pid > 0 && pidIsRunning(pid))
            fatal("xps-serve: another daemon (pid %ld) owns %s", pid,
                  opts_.socketPath.c_str());
        // Dead owner: sweep its socket and pidfile.
        std::error_code ec;
        fs::remove(pidfile, ec);
        fs::remove(opts_.socketPath, ec);
        Metrics::global().counter("serve.stale_swept").add();
        inform("xps-serve: swept stale socket of dead pid %ld", pid);
    } else if (fs::exists(opts_.socketPath)) {
        // Socket without a pidfile: a crashed daemon never wrote or
        // already lost its pidfile. Nobody can own it — sweep.
        std::error_code ec;
        fs::remove(opts_.socketPath, ec);
        Metrics::global().counter("serve.stale_swept").add();
        inform("xps-serve: swept orphaned socket %s",
               opts_.socketPath.c_str());
    }
    atomicWriteFile(pidfile, std::to_string(::getpid()) + "\n");
}

void
Server::boot()
{
    obs::setProcessName("serve/daemon");
    sockaddr_un addr = {};
    if (opts_.socketPath.size() >= sizeof(addr.sun_path))
        fatal("xps-serve: socket path is longer than sun_path (%zu "
              "bytes): %s", sizeof(addr.sun_path),
              opts_.socketPath.c_str());
    takeoverSocket();
    recoverJournal();

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("xps-serve: socket: %s", std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("xps-serve: bind(%s): %s", opts_.socketPath.c_str(),
              std::strerror(errno));
    if (::listen(listenFd_, 64) != 0)
        fatal("xps-serve: listen: %s", std::strerror(errno));
    inform("xps-serve: listening on %s (%d workers, queue max %zu)",
           opts_.socketPath.c_str(), pool_.options().workers,
           opts_.queueMax);
    // An export cadence implies a scraper wanting percentiles.
    if (opts_.metricsExportS > 0)
        Metrics::enableHistograms();
    maybeExportMetrics(true);
    booted_ = true;
}

void
Server::recoverJournal()
{
    // A trace file is rarely written twice, so a later write of it
    // would seldom sweep its dead writer's temp: sweep them here.
    sweepStaleTemps(opts_.stateDir + "/traces", "");
    uint64_t resumed = 0;
    for (const JournalRecord &rec : journal_.recover()) {
        Request req;
        std::string error;
        if (!parseRequest(rec.request, req, error) ||
            !req.isCompute()) {
            warn("journal: dropping unparsable recovered job %s (%s)",
                 rec.key.c_str(), error.c_str());
            journal_.remove(rec.key);
            continue;
        }
        const CsvManifest identity = requestIdentity(req);
        CsvDoc doc;
        if (store_.lookup(identity, doc)) {
            // The worker published before the crash.
            journal_.remove(rec.key);
            continue;
        }
        Job job;
        job.seq = rec.seq;
        job.key = rec.key;
        // A client-minted rid survives recovery through the journaled
        // request line; a daemon-minted one did not, so re-mint.
        if (req.rid.empty())
            req.rid = "r" + std::to_string(::getpid()) + "-" +
                      std::to_string(rec.seq);
        job.req = std::move(req);
        job.identity = identity;
        job.accepted = Clock::now();
        jobs_.push_back(std::move(job));
        ++resumed;
        inform("journal: resuming job %s (%s)", rec.key.c_str(),
               opName(jobs_.back().req.op));
    }
    Metrics::global().counter("serve.journal_recovered").add(resumed);
}

int
Server::run()
{
    if (!booted_)
        boot();
    while (!stopRequested())
        step(20);
    return drain();
}

void
Server::step(int timeoutMs)
{
    if (!booted_)
        boot();
    dispatch();
    pool_.poll(0);
    harvest();
    maybeExportMetrics(false);

    // One wait for everything that can need the loop: the listening
    // socket, the client connections, and the live workers' heartbeat
    // pipes, polled for their hang-up alone (a worker's exit; beats
    // are drained by the pool's own sweeps). The timeout bounds only
    // what no fd announces: heartbeat and deadline checks, retry
    // backoff, the metrics export cadence and the stop flag.
    std::vector<pollfd> fds;
    fds.push_back({listenFd_, POLLIN, 0});
    for (const Connection &c : conns_)
        fds.push_back({c.fd, POLLIN, 0});
    const size_t firstWorker = fds.size();
    for (const int fd : pool_.wakeFds())
        fds.push_back({fd, 0, 0});
    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                         timeoutMs);
    if (n <= 0)
        return; // timeout or EINTR; the caller loops
    // Walk backwards: closing a connection erases from conns_. The
    // accept comes last so conns_ and fds stay index-aligned (an
    // early accept would grow conns_ past the polled set and read
    // revents past the end of fds).
    for (size_t i = conns_.size(); i-- > 0;) {
        const short ev = fds[i + 1].revents;
        if (ev & (POLLERR | POLLHUP))
            closeClient(i);
        else if (ev & POLLIN)
            readClient(i);
    }
    // A worker exited: reap, harvest and answer in this same wake-up.
    for (size_t i = firstWorker; i < fds.size(); ++i) {
        if (fds[i].revents) {
            pool_.poll(0);
            harvest();
            break;
        }
    }
    if (fds[0].revents & POLLIN)
        acceptClient();
}

void
Server::acceptClient()
{
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0)
        return;
    XPS_FAULT_POINT("serve.accept");
    Metrics::global().counter("serve.connections").add();
    obs::instant("serve.accept", "serve");
    conns_.push_back({fd, {}});
}

void
Server::closeClient(size_t idx)
{
    const int fd = conns_[idx].fd;
    ::close(fd);
    conns_.erase(conns_.begin() + static_cast<long>(idx));
    // The job outlives its waiters: the result still lands in the
    // store, so a reconnecting client gets a cache hit.
    for (Job &job : jobs_) {
        auto &w = job.waiters;
        for (size_t i = w.size(); i-- > 0;) {
            if (w[i].first == fd)
                w.erase(w.begin() + static_cast<long>(i));
        }
    }
}

void
Server::readClient(size_t idx)
{
    char buf[4096];
    const ssize_t n = ::read(conns_[idx].fd, buf, sizeof(buf));
    if (n <= 0) {
        closeClient(idx);
        return;
    }
    conns_[idx].buf.append(buf, static_cast<size_t>(n));
    if (conns_[idx].buf.size() > (1u << 20)) {
        warn("xps-serve: dropping client with a >1MiB pending line");
        closeClient(idx);
        return;
    }
    const int fd = conns_[idx].fd;
    std::string &acc = conns_[idx].buf;
    size_t nl;
    while ((nl = acc.find('\n')) != std::string::npos) {
        const std::string line = acc.substr(0, nl);
        acc.erase(0, nl + 1);
        if (!line.empty())
            handleLine(fd, line);
        // handleLine may have closed this connection (write error);
        // re-find it to stay safe.
        bool alive = false;
        for (const Connection &c : conns_)
            alive |= c.fd == fd;
        if (!alive)
            return;
    }
}

void
Server::handleLine(int fd, const std::string &line)
{
    Metrics &metrics = Metrics::global();
    metrics.counter("serve.requests").add();
    Request req;
    std::string error;
    if (!parseRequest(line, req, error)) {
        metrics.counter("serve.bad_requests").add();
        obs::log::event(obs::log::Level::Warn, "serve",
                        "rejected request", [&] {
                            return obs::Args().add("error", error);
                        });
        // req.id survives any failure past the JSON parse itself, so
        // most rejections still echo the client's correlation id.
        respond(fd, errorResponse(req.id, error));
        return;
    }
    // Every span and log event from here to the response (and, for
    // compute ops, through dispatch, the forked worker and harvest)
    // carries this request id; the merger turns the shared rid into
    // Perfetto flow events.
    if (req.rid.empty())
        req.rid = "d" + std::to_string(::getpid()) + "-" +
                  std::to_string(++ridCounter_);
    obs::RequestScope ridScope(req.rid);
    obs::instant("serve.request", "serve", [&] {
        return obs::Args()
            .add("op", opName(req.op))
            .add("client", req.client);
    });
    if (req.op == Request::Op::Ping) {
        respond(fd, "{\"id\":\"" + obs::json::escape(req.id) +
                        "\",\"status\":\"ok\",\"op\":\"ping\"}");
        return;
    }
    if (req.op == Request::Op::Stats) {
        respond(fd, statsResponse(req.id));
        return;
    }
    if (req.op == Request::Op::Metrics) {
        respond(fd, metricsResponse(req.id));
        return;
    }
    handleCompute(fd, req, line);
}

void
Server::handleCompute(int fd, const Request &req,
                      const std::string &line)
{
    Metrics &metrics = Metrics::global();
    const CsvManifest identity = requestIdentity(req);
    CsvDoc doc;
    if (store_.lookup(identity, doc)) {
        respond(fd, okResponse(req.id, doc, true, false));
        return;
    }
    const std::string key = identityKey(identity);
    for (Job &job : jobs_) {
        if (job.key == key) {
            job.waiters.emplace_back(fd, req.id);
            metrics.counter("serve.coalesced").add();
            return;
        }
    }
    size_t queued = 0;
    for (const Job &job : jobs_)
        queued += job.started ? 0 : 1;
    if (queued >= opts_.queueMax) {
        metrics.counter("serve.shed").add();
        obs::log::event(obs::log::Level::Warn, "serve",
                        "request shed by admission control", [&] {
                            return obs::Args()
                                .add("op", opName(req.op))
                                .add("client", req.client)
                                .add("queued",
                                     static_cast<uint64_t>(queued));
                        });
        const double retry = std::max(
            1.0, static_cast<double>(jobs_.size()) /
                     std::max(1, pool_.options().workers));
        respond(fd, overloadedResponse(req.id, retry));
        return;
    }

    Job job;
    job.seq = journal_.nextSeq();
    job.key = key;
    job.req = req;
    job.identity = identity;
    job.waiters.emplace_back(fd, req.id);
    job.accepted = Clock::now();
    journalRecord({key, job.seq, line});
    metrics.counter("serve.accepted").add();
    if (Metrics::histogramsEnabled())
        metrics.histogram("serve.queue_depth").record(queued + 1);
    jobs_.push_back(std::move(job));
}

/** journal_.record with the §14 instrumentation: a serve.journal
 *  span on the timeline and a serve.journal_write latency sample —
 *  fsync latency is the daemon's dominant inline cost. */
void
Server::journalRecord(const JournalRecord &rec)
{
    const bool timed = obs::enabled() || Metrics::histogramsEnabled();
    const uint64_t t0 = timed ? obs::detail::nowNs() : 0;
    journal_.record(rec);
    if (!timed)
        return;
    const uint64_t t1 = obs::detail::nowNs();
    if (obs::enabled())
        obs::detail::emitSpan("serve.journal", "serve", t0, t1,
                              obs::Args().add("key", rec.key).str());
    if (Metrics::histogramsEnabled())
        Metrics::global().histogram("serve.journal_write")
            .record(t1 - t0);
}

std::string
Server::checkpointDir(const std::string &key) const
{
    return opts_.stateDir + "/staging/ckpt." + key;
}

ProcJob
Server::makeProcJob(const Job &job)
{
    ProcJob pj;
    pj.name = std::string(opName(job.req.op)) + "." + job.key;
    pj.deadlineSeconds = job.req.deadlineS > 0
                             ? job.req.deadlineS
                             : opts_.defaultDeadlineS;
    pj.run = [this, req = job.req, identity = job.identity,
              key = job.key]() {
        // In the forked worker: drop the daemon's listening socket and
        // client connections. A SIGKILL'd daemon's surviving
        // descendants must not keep its accept queue connectable (a
        // client would connect into a backlog nobody will ever accept
        // from) or hold client connections half-open.
        closeInheritedFds();
        // Inherit the request context: every span this worker emits
        // (pool.job, sim.run, anneal.*) joins the request's flow in
        // the merged timeline.
        obs::setRequestContext(req.rid);
        CsvDoc doc;
        switch (req.op) {
          case Request::Op::Whatif:
            doc = runWhatif(req);
            break;
          case Request::Op::Matrix:
            doc = runMatrix(req, opts_);
            break;
          case Request::Op::Explore:
            doc = runExplore(req, opts_, checkpointDir(key));
            break;
          default:
            return 125;
        }
        // Publish first, then report: once the daemon hears of the
        // result, the store already has it, so the journal record can
        // go. A degraded result is sent but never cached.
        const std::string csv = renderCsv(doc, &identity);
        if (!isDegraded(doc)) {
            obs::ScopedSpan span("serve.publish", "serve", [&] {
                return obs::Args().add("key", key);
            });
            store_.publish(identity, csv);
        }
        ProcPool::sendResult(csv, "worker.result");
        return 0;
    };
    pj.onSuccess = [this, identity = job.identity,
                    key = job.key](const std::string &csv) {
        CsvDoc doc;
        CsvReject reason = CsvReject::None;
        if (!parseCsvValidated(csv, "result of job " + key, doc,
                               identity, reason))
            return false;
        for (Job &j : jobs_) {
            if (j.key == key)
                j.result = std::move(doc);
        }
        return true;
    };
    return pj;
}

void
Server::dispatch()
{
    while (started_ <
           static_cast<size_t>(pool_.options().workers)) {
        // Fair share: among queued jobs, serve the client that has
        // waited longest since its last dispatch; ties (and new
        // clients) go to the oldest request.
        Job *pick = nullptr;
        for (Job &job : jobs_) {
            if (job.started)
                continue;
            if (!pick) {
                pick = &job;
                continue;
            }
            const auto it = lastServed_.find(job.req.client);
            const auto pt = lastServed_.find(pick->req.client);
            const uint64_t js =
                it == lastServed_.end() ? 0 : it->second;
            const uint64_t ps =
                pt == lastServed_.end() ? 0 : pt->second;
            if (js < ps || (js == ps && job.seq < pick->seq))
                pick = &job;
        }
        if (!pick)
            return;
        obs::RequestScope ridScope(pick->req.rid);
        // The accepted->dispatched wait is the queue's contribution
        // to the request's latency: one serve.queue span on the
        // timeline, one serve.queue_wait histogram sample.
        const auto now = Clock::now();
        const uint64_t waitNs = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - pick->accepted)
                .count());
        if (obs::enabled()) {
            const uint64_t nowNs = static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    now.time_since_epoch())
                    .count());
            obs::detail::emitSpan("serve.queue", "serve",
                                  nowNs - waitNs, nowNs,
                                  obs::Args()
                                      .add("op", opName(pick->req.op))
                                      .add("key", pick->key)
                                      .str());
        }
        if (Metrics::histogramsEnabled())
            Metrics::global().histogram("serve.queue_wait")
                .record(waitNs);
        pick->ticket = pool_.submit(makeProcJob(*pick));
        pick->started = true;
        lastServed_[pick->req.client] = pick->seq;
        ++started_;
        Metrics::global().counter("serve.dispatched").add();
        obs::instant("serve.dispatch", "serve", [&] {
            return obs::Args()
                .add("op", opName(pick->req.op))
                .add("key", pick->key);
        });
    }
}

void
Server::harvest()
{
    Metrics &metrics = Metrics::global();
    for (auto &[ticket, outcome] : pool_.takeCompleted()) {
        size_t idx = SIZE_MAX;
        for (size_t i = 0; i < jobs_.size(); ++i) {
            if (jobs_[i].started && jobs_[i].ticket == ticket)
                idx = i;
        }
        if (idx == SIZE_MAX)
            continue; // already drained
        Job job = std::move(jobs_[idx]);
        jobs_.erase(jobs_.begin() + static_cast<long>(idx));
        --started_;
        obs::RequestScope ridScope(job.req.rid);

        if (outcome.status == ProcJobOutcome::Status::Quarantined) {
            metrics.counter("serve.failed").add();
            obs::log::event(obs::log::Level::Error, "serve",
                            "job quarantined", [&] {
                                return obs::Args()
                                    .add("op", opName(job.req.op))
                                    .add("key", job.key)
                                    .add("attempts", outcome.attempts)
                                    .add("error", outcome.lastError);
                            });
            journal_.remove(job.key);
            answerWaiters(
                job, errorResponse(
                         "", "job failed after " +
                                 std::to_string(outcome.attempts) +
                                 " attempts: " + outcome.lastError));
            continue;
        }
        const bool degraded = isDegraded(job.result);
        if (degraded) // uncached; the response is marked instead
            metrics.counter("serve.degraded_responses").add();
        metrics.counter("serve.completed").add();
        const uint64_t jobNs = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - job.accepted)
                .count());
        if (Metrics::histogramsEnabled()) {
            metrics.histogram("serve.job").record(jobNs);
            // Per-op SLO latency: accept-to-respond per operation.
            metrics.histogram(std::string("serve.op.") +
                              opName(job.req.op))
                .record(jobNs);
        }
        obs::log::event(obs::log::Level::Info, "serve",
                        "job completed", [&] {
                            return obs::Args()
                                .add("op", opName(job.req.op))
                                .add("key", job.key)
                                .add("ms", static_cast<double>(jobNs) /
                                               1e6)
                                .add("degraded", degraded ? 1 : 0)
                                .add("waiters",
                                     static_cast<uint64_t>(
                                         job.waiters.size()));
                        });
        for (const auto &[fd, id] : job.waiters) {
            if (connected(fd))
                respond(fd, okResponse(id, job.result, false, degraded));
        }
        journal_.remove(job.key);
        if (job.req.op == Request::Op::Explore) {
            // The explorer removed its checkpoint files; their
            // directory goes too. Only when empty: a quarantined job
            // never gets here and keeps its checkpoints for a rerun.
            std::error_code ec;
            fs::remove(checkpointDir(job.key), ec);
        }
    }
}

bool
Server::connected(int fd) const
{
    for (const Connection &c : conns_) {
        if (c.fd == fd)
            return true;
    }
    return false;
}

void
Server::answerWaiters(Job &job, const std::string &payload)
{
    // A shared payload (error / shutting-down) for every waiter; ok
    // responses are built per waiter in harvest() so each echoes its
    // own request id. Detach the list first: a failed write closes
    // that client, and closeClient() erases its entries from every
    // job's waiters, which would skip the next waiter and repeat the
    // last one if we were iterating them in place.
    std::vector<std::pair<int, std::string>> waiters;
    waiters.swap(job.waiters);
    for (const auto &[fd, id] : waiters) {
        (void)id;
        if (connected(fd))
            respond(fd, payload);
    }
}

void
Server::respond(int fd, const std::string &payload)
{
    obs::ScopedSpan span("serve.respond", "serve");
    XPS_FAULT_POINT("serve.respond");
    const std::string line = payload + "\n";
    size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::write(fd, line.data() + off, line.size() - off);
        if (n <= 0) {
            if (errno == EINTR)
                continue;
            // Client gone (EPIPE et al.): close our side; the store
            // keeps the result for its retry.
            for (size_t i = 0; i < conns_.size(); ++i) {
                if (conns_[i].fd == fd) {
                    closeClient(i);
                    break;
                }
            }
            return;
        }
        off += static_cast<size_t>(n);
    }
    Metrics::global().counter("serve.responses").add();
}

std::string
Server::statsResponse(const std::string &id) const
{
    Metrics &metrics = Metrics::global();
    size_t queued = 0;
    for (const Job &job : jobs_)
        queued += job.started ? 0 : 1;
    std::ostringstream out;
    out << "{\"id\":\"" << obs::json::escape(id)
        << "\",\"status\":\"ok\",\"op\":\"stats\""
        << ",\"queued\":" << queued
        << ",\"running\":" << started_
        << ",\"workers\":" << pool_.options().workers
        << ",\"queue_max\":" << opts_.queueMax;
    for (const char *name :
         {"serve.requests", "serve.accepted", "serve.completed",
          "serve.failed", "serve.shed", "serve.coalesced",
          "serve.cache_hits", "serve.cache_misses",
          "serve.cache_publishes", "serve.degraded_responses",
          "serve.journal_recovered", "serve.stale_swept"}) {
        // "serve.cache_hits" -> "cache_hits"
        out << ",\"" << (name + 6) << "\":"
            << metrics.counter(name).get();
    }
    out << '}';
    return out.str();
}

/**
 * The `metrics` op: the live registry — counters, timers, and
 * p50/p95/p99 from the log-scaled histograms — plus queue state, as
 * one NDJSON-framed line. Same snapshot source as the at-exit
 * XPS_METRICS_JSON dump, so a scraper and the dump always agree.
 */
std::string
Server::metricsResponse(const std::string &id) const
{
    size_t queued = 0;
    for (const Job &job : jobs_)
        queued += job.started ? 0 : 1;
    const Metrics::Snapshot snap = Metrics::global().snapshot();
    std::ostringstream out;
    out << "{\"id\":\"" << obs::json::escape(id)
        << "\",\"status\":\"ok\",\"op\":\"metrics\""
        << ",\"queued\":" << queued
        << ",\"running\":" << started_
        << ",\"workers\":" << pool_.options().workers
        << ",\"queue_max\":" << opts_.queueMax
        << ",\"counters\":{";
    for (size_t i = 0; i < snap.counters.size(); ++i)
        out << (i ? ",\"" : "\"")
            << obs::json::escape(snap.counters[i].first)
            << "\":" << snap.counters[i].second;
    out << "},\"timers_seconds\":{";
    char buf[64];
    for (size_t i = 0; i < snap.timers.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.6f",
                      snap.timers[i].second);
        out << (i ? ",\"" : "\"")
            << obs::json::escape(snap.timers[i].first) << "\":"
            << buf;
    }
    out << "},\"histograms_ns\":{";
    for (size_t i = 0; i < snap.histograms.size(); ++i) {
        const Metrics::HistogramSummary &h =
            snap.histograms[i].second;
        std::snprintf(buf, sizeof(buf), "%.1f", h.meanNs);
        out << (i ? ",\"" : "\"")
            << obs::json::escape(snap.histograms[i].first)
            << "\":{\"count\":" << h.count << ",\"p50\":" << h.p50Ns
            << ",\"p95\":" << h.p95Ns << ",\"p99\":" << h.p99Ns
            << ",\"max\":" << h.maxNs << ",\"mean\":" << buf << '}';
    }
    out << "}}";
    return out.str();
}

/** Write the Prometheus snapshot to <stateDir>/metrics.prom on the
 *  XPS_METRICS_EXPORT_S cadence (atomically — a scraper mid-read
 *  never sees a torn file). `force` flushes regardless of cadence
 *  (boot and drain). */
void
Server::maybeExportMetrics(bool force)
{
    if (opts_.metricsExportS <= 0)
        return;
    const auto now = Clock::now();
    if (!force &&
        std::chrono::duration<double>(now - lastMetricsExport_)
                .count() < opts_.metricsExportS)
        return;
    lastMetricsExport_ = now;
    Metrics::global().writePrometheus(opts_.stateDir +
                                      "/metrics.prom");
}

int
Server::drain()
{
    inform("xps-serve: drain requested; %zu job(s) in flight "
           "(%zu running)", jobs_.size(), started_);
    // Stop admissions first: no new connections, no new reads.
    ::close(listenFd_);
    std::error_code ec;
    fs::remove(opts_.socketPath, ec);
    fs::remove(opts_.socketPath + ".pid", ec);
    listenFd_ = -1;

    // Queued-but-unstarted jobs stay journaled for the next boot;
    // their waiters learn to retry instead of hanging.
    for (Job &job : jobs_) {
        if (!job.started)
            answerWaiters(job, shuttingDownResponse(""));
    }
    // Finish the running jobs within the drain budget.
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opts_.drainS));
    while (started_ > 0 && Clock::now() < deadline) {
        pool_.poll(20);
        harvest();
    }
    if (started_ > 0) {
        warn("xps-serve: drain budget exhausted; %zu running job(s) "
             "stay journaled for the next boot", started_);
        // Workers die with us (PR_SET_PDEATHSIG); the journal keeps
        // their jobs.
    }
    for (const Connection &c : conns_)
        ::close(c.fd);
    conns_.clear();
    maybeExportMetrics(true); // final snapshot for the scraper
    obs::flushTrace();
    obs::log::flushLog();
    inform("xps-serve: drained; exiting gracefully");
    return kGracefulExitCode;
}

} // namespace serve
} // namespace xps
