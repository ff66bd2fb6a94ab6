#include "util/atomic_file.hh"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "obs/tracer.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace xps
{

namespace
{

void
fsyncPath(const std::string &path, bool directory)
{
    const int flags = directory ? O_RDONLY | O_DIRECTORY : O_RDONLY;
    const int fd = ::open(path.c_str(), flags);
    if (fd < 0) {
        // Some filesystems refuse O_DIRECTORY opens; the rename is
        // still atomic, only its durability after a power cut is
        // weakened, so this is survivable.
        if (directory)
            return;
        fatal("atomicWriteFile: cannot reopen %s for fsync: %s",
              path.c_str(), std::strerror(errno));
    }
    if (::fsync(fd) != 0 && errno != EINVAL && errno != EROFS) {
        ::close(fd);
        fatal("atomicWriteFile: fsync(%s) failed: %s", path.c_str(),
              std::strerror(errno));
    }
    ::close(fd);
}

/** A per-call staging nonce: pids are recycled, so `.tmp.<pid>` alone
 *  can collide with a dead writer's leftover. */
uint32_t
stagingNonce()
{
    static std::atomic<uint64_t> counter{0};
    static const uint64_t seed = [] {
        std::random_device rd;
        return (static_cast<uint64_t>(rd()) << 32) ^ rd() ^
               static_cast<uint64_t>(::getpid());
    }();
    uint64_t x = seed + counter.fetch_add(0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<uint32_t>(x ^ (x >> 31));
}

} // namespace

// Only `<name>.tmp.<pid>[.<nonce>]` names whose pid is gone are
// removed: a live writer (kill(pid, 0) succeeds or yields EPERM)
// keeps its staging file.
void
sweepStaleTemps(const std::string &dir, const std::string &name)
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir.empty() ? "." : dir, ec);
    if (ec)
        return;
    for (const auto &entry : it) {
        const std::string file = entry.path().filename().string();
        const size_t tmp = file.find(".tmp.");
        if (tmp == std::string::npos ||
            (!name.empty() && file.compare(0, tmp, name) != 0))
            continue;
        const std::string rest = file.substr(tmp + 5);
        size_t digits = 0;
        while (digits < rest.size() &&
               std::isdigit(static_cast<unsigned char>(rest[digits])))
            ++digits;
        if (digits == 0 ||
            (digits < rest.size() && rest[digits] != '.'))
            continue; // not a name we generate
        const long pid = std::strtol(rest.substr(0, digits).c_str(),
                                     nullptr, 10);
        if (pid <= 0 || pid == static_cast<long>(::getpid()))
            continue;
        if (::kill(static_cast<pid_t>(pid), 0) != 0 &&
            errno == ESRCH) {
            std::error_code rm_ec;
            if (std::filesystem::remove(entry.path(), rm_ec)) {
                verbose("atomicWriteFile: swept stale staging file %s",
                        entry.path().c_str());
                Metrics::global()
                    .counter("atomic_file.stale_temps_swept").add();
            }
        }
    }
}

void
atomicWriteFile(const std::string &path, const std::string &content,
                const char *faultSite)
{
    // The tracer's own merge path deliberately bypasses this function
    // (tmp + rename by hand): this span must never re-enter the
    // tracer mid-merge.
    obs::ScopedSpan span("atomic_file.write", "io", [&] {
        return obs::Args()
            .add("path", path)
            .add("bytes", static_cast<uint64_t>(content.size()));
    });
    const std::filesystem::path fs_path(path);
    if (fs_path.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(fs_path.parent_path(), ec);
        if (ec)
            fatal("atomicWriteFile: cannot create directory for %s: %s",
                  path.c_str(), ec.message().c_str());
    }

    if (faultSite) {
        const fault::Kind kind = fault::fire(faultSite);
        if (kind == fault::Kind::Enospc)
            fatal("atomicWriteFile: write to %s failed: %s (injected "
                  "at %s)", path.c_str(), std::strerror(ENOSPC),
                  faultSite);
        if (kind == fault::Kind::ShortWrite) {
            // Model the failure atomicWriteFile exists to prevent: a
            // non-atomic writer dying mid-write leaves the published
            // file torn. Readers must reject or tolerate the tear.
            std::ofstream torn(path,
                               std::ios::trunc | std::ios::binary);
            torn.write(content.data(), static_cast<std::streamsize>(
                                           content.size() / 2));
            torn.flush();
            ::_exit(fault::kCrashExitCode);
        }
    }

    sweepStaleTemps(fs_path.parent_path().string(),
                    fs_path.filename().string());

    // Pid plus random nonce: concurrent writers of the same target
    // never clobber each other's staging file, even across pid reuse;
    // the last rename wins with a complete file either way.
    char suffix[40];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%d.%08x",
                  static_cast<int>(::getpid()), stagingNonce());
    const std::string tmp = path + suffix;

    {
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        if (!out)
            fatal("atomicWriteFile: cannot open %s for writing",
                  tmp.c_str());
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        out.flush();
        if (!out)
            fatal("atomicWriteFile: write to %s failed", tmp.c_str());
    }
    fsyncPath(tmp, false);

    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp.c_str());
        fatal("atomicWriteFile: rename %s -> %s failed: %s",
              tmp.c_str(), path.c_str(), std::strerror(err));
    }
    if (fs_path.has_parent_path())
        fsyncPath(fs_path.parent_path().string(), true);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

} // namespace xps
