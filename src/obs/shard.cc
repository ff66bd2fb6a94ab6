#include "obs/shard.hh"

#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "obs/json.hh"
#include "obs/tracer.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/metrics.hh"

namespace xps
{
namespace obs
{

namespace
{

/**
 * Every sink that ever armed, newest first: the one atexit handler
 * and the one fork-child handler walk it. Nodes are only ever
 * prepended, so a reader needs the lock only to load the head.
 */
std::mutex gHookedMutex;
ShardSink *gHooked = nullptr;

/** XPS_TRACE_MERGE=0 makes this process shard-only for every stream:
 *  it flushes at exit and leaves the merge to the process that owns
 *  the session (xps-client against a daemon). Read once. */
bool
mergesAtExit()
{
    static const bool merges = envUInt("XPS_TRACE_MERGE", 1) != 0;
    return merges;
}

} // namespace

uint32_t
threadId()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t tid =
        next.fetch_add(1, std::memory_order_relaxed) + 1;
    return tid;
}

void
ShardSink::arm(const std::string &mergedPath)
{
    // Outside the lock: a malformed value warns through util/logging.
    mergesAtExit();
    std::lock_guard<std::mutex> lock(mutex_);
    mergedPath_ = mergedPath;
    shardDir_ = mergedPath + ".shards";
    resetLocked();
    originPid_ = ::getpid();
    lastFlushNs_ = detail::nowNs();
    hookLocked();
    *stream_.armed = true;
}

void
ShardSink::disarm()
{
    std::lock_guard<std::mutex> lock(mutex_);
    *stream_.armed = false;
    resetLocked();
    mergedPath_.clear();
    shardDir_.clear();
}

void
ShardSink::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (*stream_.armed)
        flushLocked(detail::nowNs());
}

std::string
ShardSink::mergedPath()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return mergedPath_;
}

void
ShardSink::flushLocked(uint64_t nowNs)
{
    lastFlushNs_ = nowNs;
    if (pending_.empty())
        return;
    if (fd_ < 0) {
        std::error_code ec;
        std::filesystem::create_directories(shardDir_, ec);
        const std::string path = shardDir_ + "/" + stream_.prefix + "." +
                                 std::to_string(::getpid()) + ".jsonl";
        fd_ = ::open(path.c_str(),
                     O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
        if (fd_ < 0) {
            const int err = errno;
            failLocked("cannot open shard " + path, err, pending_.size());
            return;
        }
    }
    size_t off = 0;
    while (off < pending_.size()) {
        const ssize_t n = ::write(fd_, pending_.data() + off,
                                  pending_.size() - off);
        if (n < 0) {
            const int err = errno;
            if (err == EINTR)
                continue;
            failLocked("shard write failed", err, pending_.size() - off);
            return;
        }
        off += static_cast<size_t>(n);
    }
    pending_.clear();
}

/** The shard is gone: count what it never received, say so once, and
 *  drop every later event (append() counts them one by one). */
void
ShardSink::failLocked(const std::string &what, int err, size_t unwritten)
{
    failed_ = true;
    countDropped(static_cast<uint64_t>(
        std::count(pending_.end() - static_cast<ptrdiff_t>(unwritten),
                   pending_.end(), '\n')));
    pending_.clear();
    std::fprintf(stderr, "[warn] %s: %s: %s; dropping events (see %s)\n",
                 stream_.name, what.c_str(), std::strerror(err),
                 stream_.dropped);
}

/** The metrics mutex is a leaf below the sink lock. */
void
ShardSink::countDropped(uint64_t events)
{
    if (events)
        Metrics::global().counter(stream_.dropped).add(events);
}

void
ShardSink::closeLocked()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

void
ShardSink::resetLocked()
{
    closeLocked();
    pending_.clear();
    failed_ = false;
    if (stream_.reset)
        stream_.reset();
}

void
ShardSink::hookLocked()
{
    if (hooked_)
        return;
    std::lock_guard<std::mutex> lock(gHookedMutex);
    if (!gHooked) {
        ::pthread_atfork(nullptr, nullptr, childAfterFork);
        std::atexit(atExit);
    }
    nextHooked_ = gHooked;
    gHooked = this;
    hooked_ = true;
}

/** The process that armed a stream merges it; every other process
 *  (forked children, XPS_TRACE_MERGE=0) keeps its events by flushing. */
void
ShardSink::atExit()
{
    ShardSink *head;
    {
        std::lock_guard<std::mutex> lock(gHookedMutex);
        head = gHooked;
    }
    for (ShardSink *s = head; s; s = s->nextHooked_) {
        bool merge;
        {
            std::lock_guard<std::mutex> lock(s->mutex_);
            if (!*s->stream_.armed)
                continue;
            merge = ::getpid() == s->originPid_ && mergesAtExit();
            if (!merge)
                s->flushLocked(detail::nowNs());
        }
        if (merge)
            s->stream_.mergeAtExit();
    }
}

/**
 * In a freshly forked child the inherited shard fd and unflushed
 * events belong to the parent (which still holds them); writing
 * either from here would duplicate or interleave. Start clean: the
 * child gets its own shard on its first event. No locking: the child
 * is single-threaded by the fork contract of the worker pool, and the
 * parent's mutex state is stale here.
 */
void
ShardSink::childAfterFork()
{
    for (ShardSink *s = gHooked; s; s = s->nextHooked_)
        s->resetLocked();
}

ShardMergeStats
ShardSink::merge(
    const std::function<bool(const json::Value &)> &accept,
    const std::function<void(std::vector<ShardLine> &)> &extend)
{
    ShardMergeStats stats;
    std::string mergedPath, shardDir;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!*stream_.armed)
            return stats;
        flushLocked(detail::nowNs());
        closeLocked();
        *stream_.armed = false;
        mergedPath = mergedPath_;
        shardDir = shardDir_;
    }

    std::vector<ShardLine> lines;
    std::error_code ec;
    std::filesystem::directory_iterator it(shardDir, ec);
    if (!ec) {
        const std::string prefix = std::string(stream_.prefix) + ".";
        std::vector<std::filesystem::path> shards;
        for (const auto &entry : it) {
            if (entry.path().filename().string().rfind(prefix, 0) == 0)
                shards.push_back(entry.path());
        }
        std::sort(shards.begin(), shards.end());
        for (const auto &shard : shards) {
            std::string content;
            if (!readFile(shard.string(), content)) {
                ++stats.tornShards;
                continue;
            }
            size_t valid = 0;
            size_t pos = 0;
            while (pos < content.size()) {
                size_t nl = content.find('\n', pos);
                if (nl == std::string::npos)
                    nl = content.size();
                std::string line = content.substr(pos, nl - pos);
                pos = nl + 1;
                if (line.empty())
                    continue;
                // Count-and-skip, never corrupt: a line must parse as
                // a complete event or it is a torn tail.
                json::Value ev;
                const json::Value *ts = nullptr;
                if (!json::parse(line, ev) || !(ts = ev.find("ts")) ||
                    ts->type != json::Value::Type::Number ||
                    !accept(ev)) {
                    ++stats.tornLines;
                    continue;
                }
                lines.push_back({ts->number, std::move(line)});
                ++valid;
            }
            if (valid == 0)
                ++stats.tornShards;
            else
                ++stats.shards;
        }
    }
    if (extend)
        extend(lines);
    std::stable_sort(lines.begin(), lines.end(),
                     [](const ShardLine &a, const ShardLine &b) {
                         return a.ts < b.ts;
                     });
    stats.lines = lines.size();

    std::string out = stream_.head;
    size_t bytes = out.size() + std::strlen(stream_.tail);
    for (const ShardLine &line : lines)
        bytes += line.text.size() + 2;
    out.reserve(bytes);
    for (size_t i = 0; i < lines.size(); ++i) {
        out += lines[i].text;
        if (i + 1 < lines.size())
            out += stream_.separator;
        out += '\n';
    }
    out += stream_.tail;

    // tmp + rename by hand, not atomicWriteFile: its io span would
    // re-enter the tracer mid-merge.
    const std::string tmp =
        mergedPath + ".tmp." + std::to_string(::getpid());
    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "[warn] %s: cannot write %s: %s\n",
                     stream_.name, tmp.c_str(), std::strerror(errno));
        return stats;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    if (std::rename(tmp.c_str(), mergedPath.c_str()) != 0) {
        std::fprintf(stderr, "[warn] %s: rename %s -> %s failed: %s\n",
                     stream_.name, tmp.c_str(), mergedPath.c_str(),
                     std::strerror(errno));
        std::remove(tmp.c_str());
        return stats;
    }
    std::filesystem::remove_all(shardDir, ec);
    stats.published = true;

    const std::string name = stream_.name;
    Metrics &metrics = Metrics::global();
    metrics.counter(name + ".shards_merged").add(stats.shards);
    metrics.counter(stream_.merged).add(stats.lines);
    if (stats.tornShards)
        metrics.counter(name + ".shards_torn").add(stats.tornShards);
    if (stats.tornLines)
        metrics.counter(name + ".lines_torn").add(stats.tornLines);
    return stats;
}

} // namespace obs
} // namespace xps
