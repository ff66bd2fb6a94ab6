#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.hh"
#include "daemon.hh"
#include "obs/json.hh"
#include "serve/client.hh"
#include "util/shutdown.hh"

extern char **environ;

namespace xpsbench
{

namespace fs = std::filesystem;

// --- failure path and child registry ---------------------------------

namespace
{

constexpr int kMaxChildren = 64;
/** Live child process groups, read by the signal handlers. */
std::atomic<int> gChildren[kMaxChildren];
char gWhere[256] = "xpsbench: startup";

void
registerChild(int pid)
{
    for (auto &slot : gChildren) {
        int expected = 0;
        if (slot.compare_exchange_strong(expected, pid))
            return;
    }
}

void
unregisterChild(int pid)
{
    for (auto &slot : gChildren) {
        int expected = pid;
        slot.compare_exchange_strong(expected, 0);
    }
}

} // namespace

void
setStep(const std::string &workload, const std::string &step)
{
    std::snprintf(gWhere, sizeof(gWhere), "xpsbench: %s: %s",
                  workload.c_str(), step.c_str());
    std::fprintf(stderr, "%s\n", gWhere);
}

const char *
stepLabel()
{
    return gWhere;
}

void
killChildren()
{
    // Async-signal-safe: kill + waitpid only.
    for (auto &slot : gChildren) {
        const int pid = slot.exchange(0);
        if (pid <= 0)
            continue;
        ::kill(-pid, SIGKILL);
        ::kill(pid, SIGKILL);
        int status;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR)
            ;
        // Workers the daemon forked live in the same group; wait
        // until the group is empty so nothing outlives the run.
        for (int i = 0; i < 2000 && ::kill(-pid, 0) == 0; ++i) {
            ::kill(-pid, SIGKILL);
            ::usleep(1000);
        }
    }
}

void
fail(const std::string &message)
{
    std::fflush(stdout);
    std::fprintf(stderr, "%s: FAILED: %s\n", gWhere, message.c_str());
    std::fflush(stderr);
    killChildren();
    ::_exit(1);
}

// --- directories and processes ---------------------------------------

std::string
freshDir(const std::string &tag)
{
    static std::atomic<int> counter{0};
    const std::string dir = ".xb/" + std::to_string(::getpid()) + "." +
                            std::to_string(counter.fetch_add(1)) + tag;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (ec)
        fail("cannot create state dir " + dir + ": " + ec.message());
    return dir;
}

void
removeDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    // Drop .xb itself once the last run dir is gone.
    fs::remove(".xb", ec);
}

std::string
buildPath(const std::string &relative)
{
    std::error_code ec;
    const fs::path self = fs::read_symlink("/proc/self/exe", ec);
    if (ec)
        fail("cannot resolve /proc/self/exe: " + ec.message());
    return (self.parent_path() / relative).string();
}

int
spawn(const std::vector<std::string> &argv, const EnvList &env,
      const std::string &logPath, int keepFd)
{
    std::vector<std::string> envStrings;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "XPS_", 4) != 0)
            envStrings.emplace_back(*e);
    }
    for (const auto &[k, v] : env)
        envStrings.push_back(k + "=" + v);
    std::vector<char *> envp;
    for (std::string &s : envStrings)
        envp.push_back(s.data());
    envp.push_back(nullptr);
    std::vector<std::string> args = argv;
    std::vector<char *> argp;
    for (std::string &s : args)
        argp.push_back(s.data());
    argp.push_back(nullptr);

    const int logFd =
        ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
    if (logFd < 0)
        fail("cannot open " + logPath + ": " + std::strerror(errno));
    const pid_t pid = ::fork();
    if (pid < 0)
        fail(std::string("fork: ") + std::strerror(errno));
    if (pid == 0) {
        ::setpgid(0, 0);
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::dup2(logFd, 1);
        ::dup2(logFd, 2);
        if (keepFd >= 0)
            ::fcntl(keepFd, F_SETFD, 0);
        ::signal(SIGPIPE, SIG_DFL);
        ::execve(argp[0], argp.data(), envp.data());
        std::fprintf(stderr, "exec %s: %s\n", argp[0],
                     std::strerror(errno));
        ::_exit(127);
    }
    ::setpgid(pid, pid);
    ::close(logFd);
    registerChild(pid);
    return pid;
}

bool
waitExit(int pid, double timeoutS, int &status, ChildUsage *usage)
{
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(timeoutS * 1e9);
    for (;;) {
        rusage ru{};
        const pid_t r = ::wait4(pid, &status, WNOHANG, &ru);
        if (r == pid) {
            unregisterChild(pid);
            // Anything the child left in its group goes with it.
            for (int i = 0; i < 2000 && ::kill(-pid, 0) == 0; ++i) {
                ::kill(-pid, SIGKILL);
                ::usleep(1000);
            }
            if (usage) {
                usage->maxRssKb = ru.ru_maxrss;
                usage->cpuS = static_cast<double>(ru.ru_utime.tv_sec +
                                                  ru.ru_stime.tv_sec) +
                              static_cast<double>(ru.ru_utime.tv_usec +
                                                  ru.ru_stime.tv_usec) /
                                  1e6;
            }
            return true;
        }
        if (r < 0 && errno != EINTR)
            return false;
        if (nowNs() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
}

std::string
fileTail(const std::string &path, size_t lines)
{
    std::ifstream in(path);
    std::deque<std::string> tail;
    std::string line;
    while (std::getline(in, line)) {
        tail.push_back(line);
        if (tail.size() > lines)
            tail.pop_front();
    }
    std::string out;
    for (const std::string &l : tail)
        out += "  | " + l + "\n";
    return out.empty() ? "  | (empty log)\n" : out;
}

// --- metrics op -------------------------------------------------------

bool
MetricsSnap::parse(const std::string &line, MetricsSnap &out)
{
    namespace json = xps::obs::json;
    json::Value v;
    if (!json::parse(line, v) || v.stringOr("status", "") != "ok")
        return false;
    const json::Value *counters = v.find("counters");
    const json::Value *timers = v.find("timers_seconds");
    const json::Value *hist = v.find("histograms_ns");
    if (!counters || !counters->isObject() || !timers ||
        !timers->isObject() || !hist || !hist->isObject())
        return false;
    out = MetricsSnap{};
    for (const auto &[k, val] : counters->fields)
        out.counters[k] = val.number;
    for (const auto &[k, val] : timers->fields)
        out.timers[k] = val.number;
    for (const auto &[k, val] : hist->fields)
        out.p50Ns[k] = val.numberOr("p50", 0.0);
    return true;
}

double
MetricsSnap::counterDelta(const MetricsSnap &earlier,
                          const std::string &name) const
{
    const auto a = counters.find(name);
    const auto b = earlier.counters.find(name);
    return (a == counters.end() ? 0.0 : a->second) -
           (b == earlier.counters.end() ? 0.0 : b->second);
}

double
MetricsSnap::timerDelta(const MetricsSnap &earlier,
                        const std::string &name) const
{
    const auto a = timers.find(name);
    const auto b = earlier.timers.find(name);
    return (a == timers.end() ? 0.0 : a->second) -
           (b == earlier.timers.end() ? 0.0 : b->second);
}

// --- the daemon -------------------------------------------------------

Daemon::Daemon(const std::string &tag, const EnvList &env, bool traced)
    : dir_(freshDir(tag)), socket_(dir_ + "/s"), env_(env),
      traced_(traced)
{
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        ::kill(-pid_, SIGKILL);
        int status;
        waitExit(pid_, 10.0, status);
    }
    removeDir(dir_);
}

double
Daemon::boot(double timeoutS)
{
    EnvList env = env_;
    env.emplace_back("XPS_RESULTS_DIR", dir_);
    if (traced_)
        env.emplace_back("XPS_TRACE_JSON", tracePath());
    const uint64_t t0 = nowNs();
    pid_ = spawn({buildPath("xps/serve/xps-serve"), "--socket", socket_,
                  "--dir", dir_ + "/state"},
                 env, logPath());
    const uint64_t deadline = t0 + static_cast<uint64_t>(timeoutS * 1e9);
    for (;;) {
        xps::serve::Client client;
        std::string reply;
        if (client.connect(socket_, 0.0) &&
            client.request("{\"op\":\"ping\",\"id\":\"boot\"}", reply,
                           timeoutS) &&
            reply.find("\"status\":\"ok\"") != std::string::npos)
            return static_cast<double>(nowNs() - t0) / 1e9;
        int status;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            unregisterChild(pid_);
            pid_ = -1;
            fail("xps-serve exited during boot (status " +
                 std::to_string(status) + "); log tail:\n" +
                 fileTail(logPath(), 20));
        }
        if (nowNs() >= deadline)
            fail("xps-serve did not answer ping within " +
                 std::to_string(timeoutS) + " s; log tail:\n" +
                 fileTail(logPath(), 20));
        std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
}

std::string
Daemon::call(const std::string &line, double timeoutS)
{
    xps::serve::Client client;
    std::string reply;
    if (!client.connect(socket_, 5.0) ||
        !client.request(line, reply, timeoutS))
        fail("request " + line.substr(0, 60) + " failed: " +
             client.error() + "; log tail:\n" + fileTail(logPath(), 20));
    return reply;
}

MetricsSnap
Daemon::metrics()
{
    MetricsSnap snap;
    const std::string reply = call("{\"op\":\"metrics\",\"id\":\"m\"}");
    if (!MetricsSnap::parse(reply, snap))
        fail("malformed metrics reply: " + reply.substr(0, 200));
    return snap;
}

long
Daemon::peakRssKb() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    }
    fail("cannot read VmHWM of the daemon");
}

void
Daemon::stop(double timeoutS)
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    if (!waitExit(pid_, timeoutS, status)) {
        ::kill(-pid_, SIGKILL);
        waitExit(pid_, 10.0, status);
        pid_ = -1;
        fail("xps-serve did not drain within " + std::to_string(timeoutS) +
             " s; log tail:\n" + fileTail(logPath(), 20));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != xps::kGracefulExitCode)
        fail("xps-serve drain ended with status " +
             std::to_string(status) + "; log tail:\n" +
             fileTail(logPath(), 20));
}

} // namespace xpsbench
