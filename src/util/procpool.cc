#include "util/procpool.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/log.hh"
#include "obs/tracer.hh"
#include "util/env.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

namespace xps
{

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** Monotonic seconds since the (fork-tree-shared) clock epoch; the
 *  scale ProcAttempt stamps and the trace timeline agree on. */
double
monoSeconds(Clock::time_point t)
{
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

uint64_t
monoNs(Clock::time_point t)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
}

/* Child-side heartbeat state, set up right after fork. */
int g_beat_fd = -1;
Clock::time_point g_last_beat;
double g_beat_interval = 0.05;

/** Frames start with '\x01', which no beat byte is. A result frame is
 *  its marker, the payload length in hex, and the payload; the rollup
 *  frame after it is its marker and one JSON line. */
constexpr char kResultMarker[] = "\x01XPSRESULT\x01";
constexpr size_t kResultMarkerLen = sizeof(kResultMarker) - 1;
constexpr size_t kLengthDigits = 16;
constexpr char kRollupMarker[] = "\x01XPSROLLUP\x01";

/** Child side: write a whole frame, blocking — the parent drains the
 *  pipe every poll(), so it cannot stall — then restore the
 *  non-blocking mode beats rely on. */
void
writeFrame(const std::string &frame)
{
    const int fl = ::fcntl(g_beat_fd, F_GETFL);
    ::fcntl(g_beat_fd, F_SETFL, fl & ~O_NONBLOCK);
    size_t off = 0;
    while (off < frame.size()) {
        const ssize_t n = ::write(g_beat_fd, frame.data() + off,
                                  frame.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break; // supervisor gone; nothing left to report to
        }
        off += static_cast<size_t>(n);
    }
    ::fcntl(g_beat_fd, F_SETFL, fl);
}

} // namespace

ProcPool::ProcPool(ProcPoolOptions opts) : opts_(opts)
{
    if (opts_.maxAttempts < 1)
        fatal("ProcPool: maxAttempts must be >= 1 (got %d)",
              opts_.maxAttempts);
    opts_.workers = resolveThreads(opts_.workers);
}

void
ProcPool::beat()
{
    if (g_beat_fd < 0)
        return;
    const auto now = Clock::now();
    if (seconds(now - g_last_beat) < g_beat_interval)
        return;
    g_last_beat = now;
    // The write end is non-blocking: if the supervisor has not
    // drained the pipe a skipped beat is harmless (the byte already
    // in the buffer proves liveness).
    [[maybe_unused]] const ssize_t n = ::write(g_beat_fd, "b", 1);
    obs::instant("pool.beat", "pool");
}

void
ProcPool::sendResult(const std::string &payload, const char *faultSite)
{
    if (g_beat_fd < 0)
        fatal("procpool: sendResult called outside a pool worker");
    char length[kLengthDigits + 1];
    std::snprintf(length, sizeof(length), "%016llx",
                  static_cast<unsigned long long>(payload.size()));
    std::string frame = std::string(kResultMarker) + length + payload;
    const fault::Kind kind =
        faultSite ? fault::fire(faultSite) : fault::Kind::None;
    if (kind == fault::Kind::Enospc)
        fatal("procpool: sending the result failed: %s (injected at "
              "%s)", std::strerror(ENOSPC), faultSite);
    if (kind == fault::Kind::ShortWrite) {
        frame.resize(frame.size() / 2); // a worker dying mid-send
        writeFrame(frame);
        ::_exit(fault::kCrashExitCode);
    }
    writeFrame(frame);
}

uint64_t
ProcPool::submit(ProcJob job)
{
    const uint64_t ticket = nextTicket_++;
    jobs_.emplace(ticket, std::move(job));
    outcomes_.emplace(ticket, ProcJobOutcome{});
    pending_.push_back({ticket, Clock::now()});
    return ticket;
}

size_t
ProcPool::inFlight() const
{
    return jobs_.size();
}

std::vector<int>
ProcPool::wakeFds() const
{
    std::vector<int> fds;
    fds.reserve(active_.size());
    for (const Active &a : active_) {
        if (a.hungUp == Clock::time_point{})
            fds.push_back(a.pipeRd);
    }
    return fds;
}

std::vector<std::pair<uint64_t, ProcJobOutcome>>
ProcPool::takeCompleted()
{
    std::vector<std::pair<uint64_t, ProcJobOutcome>> done;
    done.swap(completed_);
    return done;
}

/** Move a finished job's outcome to the completed list. */
void
ProcPool::finish(uint64_t ticket)
{
    auto it = outcomes_.find(ticket);
    completed_.emplace_back(ticket, std::move(it->second));
    outcomes_.erase(it);
    jobs_.erase(ticket);
}

// A failed attempt either requeues with backoff or quarantines.
void
ProcPool::failAttempt(uint64_t ticket, bool hang, const std::string &why)
{
    Metrics &metrics = Metrics::global();
    const ProcJob &job = jobs_.at(ticket);
    ProcJobOutcome &o = outcomes_.at(ticket);
    (hang ? o.hangs : o.crashes) += 1;
    metrics.counter(hang ? "supervisor.worker_hangs"
                         : "supervisor.worker_crashes").add();
    o.lastError = why;
    if (o.attempts >= opts_.maxAttempts) {
        o.status = ProcJobOutcome::Status::Quarantined;
        metrics.counter("supervisor.jobs_quarantined").add();
        obs::instant("pool.quarantine", "pool", [&] {
            return obs::Args()
                .add("job", job.name)
                .add("reason", why);
        });
        warn("procpool: quarantining job '%s' after %d attempts "
             "(last failure: %s)", job.name.c_str(), o.attempts,
             why.c_str());
        finish(ticket);
        return;
    }
    const int exponent = std::min(o.attempts - 1, 20);
    double backoff = std::min(
        opts_.backoffCapSeconds,
        opts_.backoffBaseSeconds *
            static_cast<double>(1ull << exponent));
    const uint64_t r = mix64(opts_.jitterSeed ^ fnv1a(job.name) ^
                             static_cast<uint64_t>(o.attempts));
    backoff += backoff * 0.25 *
               (static_cast<double>(r >> 11) * 0x1.0p-53);
    metrics.counter("supervisor.job_retries").add();
    metrics.addSeconds("supervisor.backoff_seconds", backoff);
    if (!o.attemptLog.empty())
        o.attemptLog.back().backoffSeconds = backoff;
    obs::instant("pool.retry", "pool", [&] {
        return obs::Args()
            .add("job", job.name)
            .add("attempt", o.attempts)
            .add("backoff_ms", backoff * 1e3);
    });
    pending_.push_back(
        {ticket,
         Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(backoff))});
    warn("procpool: job '%s' failed (%s); retry %d/%d in %.0f ms",
         job.name.c_str(), why.c_str(), o.attempts,
         opts_.maxAttempts - 1, backoff * 1e3);
}

void
ProcPool::spawn(uint64_t ticket)
{
    const ProcJob &job = jobs_.at(ticket);
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
        fatal("procpool: pipe: %s", std::strerror(errno));
    ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
    ::fcntl(pipe_fds[1], F_SETFL, O_NONBLOCK);
    // The child inherits copies of unflushed stdio buffers; flush
    // so nothing is emitted twice.
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("procpool: fork: %s", std::strerror(errno));
    if (pid == 0) {
        ::close(pipe_fds[0]);
#ifdef __linux__
        // Orphaned workers must not outlive a killed supervisor
        // and race a resumed run for the checkpoint files.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
        // A fatal() in the child exits through atexit handlers;
        // the inherited metrics dump must not clobber the
        // parent's XPS_METRICS_JSON with a partial child view.
        ::unsetenv("XPS_METRICS_JSON");
        g_beat_fd = pipe_fds[1];
        g_last_beat = Clock::now();
        g_beat_interval = opts_.heartbeatTimeoutSeconds > 0
                              ? opts_.heartbeatTimeoutSeconds / 8.0
                              : 0.05;
        // The inherited registry holds the parent's lifetime totals;
        // zero it so the rollup shipped at _exit is purely this
        // worker's own work (no double counting at the merge).
        Metrics::global().reset();
        XPS_FAULT_POINT("worker.start");
        obs::setProcessName("worker:" + job.name);
        int rc = 125;
        {
            obs::ScopedSpan span("pool.job", "pool", [&] {
                return obs::Args().add("job", job.name);
            });
            try {
                rc = job.run();
            } catch (...) {
                rc = 125;
            }
        }
        // _exit skips atexit handlers; push this worker's spans,
        // log events and metrics delta out explicitly or they die
        // with the process.
        obs::flushTrace();
        obs::log::flushLog();
        writeFrame(kRollupMarker + Metrics::global().serializeRollup() +
                   "\n");
        ::_exit(rc & 0xff);
    }
    ::close(pipe_fds[1]);
    obs::instant("pool.spawn", "pool", [&] {
        return obs::Args()
            .add("job", job.name)
            .add("worker_pid", static_cast<int>(pid))
            .add("attempt", outcomes_.at(ticket).attempts + 1);
    });
    const auto now = Clock::now();
    active_.push_back({ticket, pid, pipe_fds[0], now, now, {}, {}});
}

// Record one finished attempt: timing + exit detail for the
// supervisor report, a pool.attempt span for the timeline, and
// the job-latency histogram sample.
void
ProcPool::recordAttempt(const Active &a, Clock::time_point end,
                        std::string outcome, int exitCode, int sig)
{
    ProcJobOutcome &o = outcomes_.at(a.ticket);
    ProcAttempt attempt;
    attempt.attempt = o.attempts;
    attempt.startMonoSeconds = monoSeconds(a.start);
    attempt.endMonoSeconds = monoSeconds(end);
    attempt.outcome = std::move(outcome);
    attempt.exitCode = exitCode;
    attempt.signal = sig;
    if (obs::enabled()) {
        obs::detail::emitSpan(
            "pool.attempt", "pool", monoNs(a.start), monoNs(end),
            obs::Args()
                .add("job", jobs_.at(a.ticket).name)
                .add("worker_pid", static_cast<int>(a.pid))
                .add("attempt", attempt.attempt)
                .add("outcome", attempt.outcome)
                .str());
    }
    if (Metrics::histogramsEnabled())
        Metrics::global().histogram("pool.job").record(
            monoNs(end) - monoNs(a.start));
    o.attemptLog.push_back(std::move(attempt));
}

/**
 * Drain the reaped worker's pipe: its result frame into `result`
 * (false if the frame was cut short) and its metrics rollup into the
 * parent registry. A rollup without its newline is a dying worker's
 * torn tail: counted (pool.rollups_torn), never merged partially.
 */
bool
ProcPool::harvestPipe(Active &a, std::string &result)
{
    char buf[4096];
    ssize_t n;
    while ((n = ::read(a.pipeRd, buf, sizeof(buf))) > 0)
        a.pipeBuf.append(buf, static_cast<size_t>(n));
    const std::string &in = a.pipeBuf;
    size_t pos = in.find('\x01');
    if (pos == std::string::npos)
        return true; // no frame: killed early, or nothing to send
    if (in.compare(pos, kResultMarkerLen, kResultMarker) == 0) {
        const size_t body = pos + kResultMarkerLen + kLengthDigits;
        const char *digits = in.data() + pos + kResultMarkerLen;
        uint64_t length = 0;
        if (body > in.size() ||
            std::from_chars(digits, digits + kLengthDigits, length, 16)
                    .ptr != digits + kLengthDigits ||
            length > in.size() - body)
            return false; // and no rollup can follow a cut frame
        result.assign(in, body, length);
        pos = body + length;
    }
    const size_t at = in.find(kRollupMarker, pos);
    if (at == std::string::npos)
        return true; // killed before the rollup: nothing was shipped
    std::string rollup = in.substr(at + sizeof(kRollupMarker) - 1);
    Metrics &metrics = Metrics::global();
    const bool ended = !rollup.empty() && rollup.back() == '\n';
    if (ended)
        rollup.pop_back();
    metrics.counter(ended && metrics.mergeRollup(rollup)
                        ? "pool.rollups_merged"
                        : "pool.rollups_torn").add();
    return true;
}

// Reap one active slot whose child exited on its own.
void
ProcPool::handleExit(size_t slot, int status)
{
    Active a = std::move(active_[slot]);
    active_.erase(active_.begin() + static_cast<long>(slot));
    std::string result;
    const bool whole = harvestPipe(a, result);
    ::close(a.pipeRd);
    ProcJobOutcome &o = outcomes_.at(a.ticket);
    o.attempts += 1;
    const ProcJob &job = jobs_.at(a.ticket);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        if (!whole || (job.onSuccess && !job.onSuccess(result))) {
            recordAttempt(a, Clock::now(),
                          whole ? "merge rejected" : "result torn", 0, 0);
            failAttempt(a.ticket, false,
                        whole ? "result rejected by the merge step"
                              : "result frame cut short");
            return;
        }
        recordAttempt(a, Clock::now(), "ok", 0, 0);
        o.status = ProcJobOutcome::Status::Done;
        finish(a.ticket);
        return;
    }
    std::string why;
    if (WIFSIGNALED(status)) {
        why = "killed by signal " + std::to_string(WTERMSIG(status));
        recordAttempt(a, Clock::now(),
                      "signal " + std::to_string(WTERMSIG(status)),
                      -1, WTERMSIG(status));
    } else {
        why = "exit code " + std::to_string(WEXITSTATUS(status));
        recordAttempt(a, Clock::now(),
                      "exit " + std::to_string(WEXITSTATUS(status)),
                      WEXITSTATUS(status), 0);
    }
    failAttempt(a.ticket, false, why);
}

void
ProcPool::poll(int timeoutMs)
{
    // A nested supervisor (a serve worker running its own pool for a
    // matrix build) is itself a worker of the pool above: supervising
    // counts as liveness. No-op at the top level.
    beat();
    if (pending_.empty() && active_.empty())
        return;
    const auto now = Clock::now();
    // Launch ready jobs into free slots.
    for (auto it = pending_.begin();
         it != pending_.end() &&
         active_.size() < static_cast<size_t>(opts_.workers);) {
        if (it->readyAt <= now) {
            const uint64_t ticket = it->ticket;
            it = pending_.erase(it);
            spawn(ticket);
        } else {
            ++it;
        }
    }

    // Wait for beats / exits; the timeout bounds hang-detection and
    // backoff latency without measurable supervisor CPU. A pipe that
    // has hung up stays readable for good, so it leaves the set.
    if (!active_.empty()) {
        std::vector<pollfd> fds;
        std::vector<size_t> slots;
        for (size_t i = 0; i < active_.size(); ++i) {
            if (active_[i].hungUp != Clock::time_point{})
                continue;
            fds.push_back({active_[i].pipeRd, POLLIN, 0});
            slots.push_back(i);
        }
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeoutMs);
        const auto t = Clock::now();
        for (size_t k = 0; k < fds.size(); ++k) {
            Active &a = active_[slots[k]];
            // A hang-up is not a beat: a worker that lives on without
            // its pipe still falls to hang detection.
            if (fds[k].revents & POLLHUP)
                a.hungUp = t;
            if (!(fds[k].revents & POLLIN))
                continue;
            char buf[4096];
            ssize_t n;
            while ((n = ::read(a.pipeRd, buf, sizeof(buf))) > 0)
                a.pipeBuf.append(buf, static_cast<size_t>(n));
            // Pure beat traffic is discarded as it arrives — only
            // (possibly partial) frames are worth keeping, so a
            // long-lived worker cannot grow the buffer.
            const size_t frame = a.pipeBuf.find('\x01');
            if (frame == std::string::npos)
                a.pipeBuf.clear();
            else if (frame > 0)
                a.pipeBuf.erase(0, frame);
            a.lastBeat = t;
        }
    } else if (timeoutMs > 0) {
        // Everyone is backing off; don't spin the caller's loop.
        ::usleep(static_cast<useconds_t>(
            std::min(timeoutMs, 2) * 1000));
    }

    // Reap exits and kill hangs / blown deadlines.
    const auto t = Clock::now();
    for (size_t i = 0; i < active_.size();) {
        int status = 0;
        pid_t r = ::waitpid(active_[i].pid, &status, WNOHANG);
        // The kernel closes a dying worker's fds a few microseconds
        // before it can be reaped: wait out that gap, once, so the
        // exit a hang-up announced is reaped in this same call. Sleep
        // rather than yield: on a busy host a yield can hand the CPU
        // to another process for a whole time slice.
        const Clock::time_point hup = active_[i].hungUp;
        while (r == 0 && hup != Clock::time_point{} &&
               Clock::now() - hup < kExitWindow) {
            ::usleep(50);
            r = ::waitpid(active_[i].pid, &status, WNOHANG);
        }
        if (r == active_[i].pid) {
            handleExit(i, status);
            continue;
        }
        const double quiet = seconds(t - active_[i].lastBeat);
        const double age = seconds(t - active_[i].start);
        const double hb = opts_.heartbeatTimeoutSeconds;
        const double dl = jobs_.at(active_[i].ticket).deadlineSeconds;
        const bool hung = hb > 0 && quiet > hb;
        const bool late = dl > 0 && age > dl;
        if (!hung && !late) {
            ++i;
            continue;
        }
        Active a = std::move(active_[i]);
        active_.erase(active_.begin() + static_cast<long>(i));
        obs::instant("pool.kill", "pool", [&] {
            return obs::Args()
                .add("job", jobs_.at(a.ticket).name)
                .add("worker_pid", static_cast<int>(a.pid))
                .add("reason", hung ? "hang" : "deadline");
        });
        ::kill(a.pid, SIGKILL);
        ::waitpid(a.pid, &status, 0);
        std::string discarded; // a killed attempt's result is void
        harvestPipe(a, discarded); // a torn rollup still counts
        ::close(a.pipeRd);
        outcomes_.at(a.ticket).attempts += 1;
        recordAttempt(a, t, hung ? "hang" : "deadline", -1, SIGKILL);
        char why[96];
        if (hung)
            std::snprintf(why, sizeof(why),
                          "no heartbeat for %.2f s (limit %.2f s)",
                          quiet, hb);
        else
            std::snprintf(why, sizeof(why),
                          "deadline of %.2f s exceeded", dl);
        failAttempt(a.ticket, true, why);
    }
}

std::vector<ProcJobOutcome>
ProcPool::run(const std::vector<ProcJob> &jobs)
{
    std::vector<uint64_t> tickets;
    tickets.reserve(jobs.size());
    for (const ProcJob &job : jobs)
        tickets.push_back(submit(job));

    std::map<uint64_t, ProcJobOutcome> byTicket;
    while (inFlight() > 0) {
        poll(20);
        for (auto &done : takeCompleted())
            byTicket.emplace(done.first, std::move(done.second));
    }
    for (auto &done : takeCompleted())
        byTicket.emplace(done.first, std::move(done.second));

    std::vector<ProcJobOutcome> outcomes;
    outcomes.reserve(jobs.size());
    for (const uint64_t ticket : tickets)
        outcomes.push_back(std::move(byTicket.at(ticket)));
    return outcomes;
}

} // namespace xps
