/**
 * @file
 * Lifecycle of one xps-serve daemon under test: exec in its own
 * process group (so a teardown reaches its forked workers too) with a
 * scrubbed environment, wait for `ping` with a deadline, drain with
 * SIGTERM, and read its peak RSS. Paths stay relative to the working
 * directory, so the socket fits sun_path wherever the checkout lives.
 */

#ifndef XPSBENCH_DAEMON_HH
#define XPSBENCH_DAEMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace xpsbench
{

using EnvList = std::vector<std::pair<std::string, std::string>>;

/** A fresh, empty directory under .xb/ (relative), unique per call. */
std::string freshDir(const std::string &tag);

/** Remove a directory made by freshDir(). */
void removeDir(const std::string &dir);

/** Path of a sibling binary of this executable's build tree. */
std::string buildPath(const std::string &relative);

/**
 * Fork + exec `argv` with the environment minus every XPS_* variable
 * plus `env`, stdout and stderr to `logPath`, in a new process group
 * registered for teardown. Returns the pid; fail()s on error.
 */
int spawn(const std::vector<std::string> &argv, const EnvList &env,
          const std::string &logPath, int keepFd = -1);

/** What wait4() reports about an exited child. */
struct ChildUsage
{
    long maxRssKb = 0;
    double cpuS = 0.0; ///< user + system time
};

/** Wait for `pid` up to `timeoutS`; true with its raw wait status
 *  (and its resource usage when asked) once it has exited. */
bool waitExit(int pid, double timeoutS, int &status,
              ChildUsage *usage = nullptr);

/** Last `lines` lines of a text file (for failure reports). */
std::string fileTail(const std::string &path, size_t lines);

/** Counters, timers and histogram p50s of one `metrics` op reply. */
struct MetricsSnap
{
    std::map<std::string, double> counters;
    std::map<std::string, double> timers;
    std::map<std::string, double> p50Ns;

    /** Parse a `metrics` response line; false when malformed. */
    static bool parse(const std::string &line, MetricsSnap &out);
    /** Counter delta `later - earlier` (0 when absent in both). */
    double counterDelta(const MetricsSnap &earlier,
                        const std::string &name) const;
    double timerDelta(const MetricsSnap &earlier,
                      const std::string &name) const;
};

class Daemon
{
  public:
    /** `traced` arms XPS_TRACE_JSON at tracePath(). */
    Daemon(const std::string &tag, const EnvList &env, bool traced);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Exec the daemon and wait until it answers `ping`; returns the
     *  seconds from exec to the answer. fail()s with the daemon's log
     *  tail when it dies or misses the deadline. */
    double boot(double timeoutS = 30.0);

    /** One request on a fresh connection; fail()s on transport
     *  errors. */
    std::string call(const std::string &line, double timeoutS = 30.0);

    /** The `metrics` op, parsed. */
    MetricsSnap metrics();

    /** Peak resident set (VmHWM) of the daemon process, in kB. */
    long peakRssKb() const;

    /** SIGTERM, wait for the drain, and check the graceful exit
     *  code; the process group is SIGKILLed and emptied afterwards
     *  either way. */
    void stop(double timeoutS = 60.0);

    const std::string &socket() const { return socket_; }
    std::string tracePath() const { return dir_ + "/trace.json"; }
    std::string logPath() const { return dir_ + "/daemon.log"; }

  private:
    std::string dir_;
    std::string socket_;
    EnvList env_;
    bool traced_;
    int pid_ = -1;
};

} // namespace xpsbench

#endif // XPSBENCH_DAEMON_HH
