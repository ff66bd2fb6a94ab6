/**
 * @file
 * The per-process shard sink behind both observability streams, the
 * span tracer (obs/tracer.hh) and the structured logger (obs/log.hh),
 * DESIGN.md §10.3.
 *
 * An armed stream appends one JSON event per line to a per-process
 * shard `<merged>.shards/<prefix>.<pid>.jsonl` (O_APPEND), buffered
 * in memory up to a fixed size and drained at least every 250 ms, so
 * a SIGKILLed worker loses at most a recent tail. A pthread_atfork
 * hook gives every forked child a clean buffer and a shard of its
 * own. At exit the process that armed the stream merges every shard
 * into the merged file; every other process (a forked child, or any
 * process run with XPS_TRACE_MERGE=0) only flushes its own.
 *
 * Once a shard cannot be opened or written, the stream reports it
 * once on stderr and from then on drops and counts every event in
 * the stream's dropped counter: nothing is buffered that can never
 * reach the disk. The sink never calls util/logging (which is bridged
 * back into the structured logger) while it holds its lock.
 *
 * The merge re-parses every shard line (obs/json.hh): a line that is
 * not a complete event with a numeric "ts", or that the stream's own
 * check rejects, is a torn tail and is counted and skipped; a shard
 * with no valid line is skipped whole. Lines are stable-sorted by
 * "ts" and published tmp + rename, and the shard directory is
 * removed.
 */

#ifndef XPS_OBS_SHARD_HH
#define XPS_OBS_SHARD_HH

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace xps
{
namespace obs
{

namespace json
{
struct Value;
} // namespace json

/** This thread's small process-local id, the "tid" of both streams
 *  (1 for the first thread that records an event). */
uint32_t threadId();

/** The fixed shape of one stream. */
struct ShardStream
{
    const char *name;       ///< "trace" / "log": message and counter prefix
    const char *prefix;     ///< shard files are <prefix>.<pid>.jsonl
    size_t bufferBytes;     ///< unflushed bytes that force a write
    const char *dropped;    ///< counter of events an unwritable shard drops
    const char *merged;     ///< counter of lines a merge publishes
    const char *head;       ///< merged file: text before the first line,
    const char *separator;  ///< after every line but the last (then '\n'),
    const char *tail;       ///< and after the last line
    bool *armed;            ///< the stream's process-global enabled flag
    void (*mergeAtExit)();  ///< the stream's merge, run by the arming process
    void (*reset)();        ///< clears stream state kept beside the sink
                            ///< (on arm, disarm and fork; may be null)
};

/** One line of a shard and the timestamp it sorts by. */
struct ShardLine
{
    double ts;
    std::string text;
};

/** Outcome of merging a stream's shards. */
struct ShardMergeStats
{
    size_t shards = 0;      ///< shard files merged
    size_t lines = 0;       ///< lines in the merged file
    size_t tornShards = 0;  ///< shard files skipped entirely
    size_t tornLines = 0;   ///< invalid trailing/interior lines skipped
    bool published = false; ///< the merged file was written
};

/**
 * One stream's per-process shard writer and merger. Lock order: the
 * request-context lock (tracer.hh) is released before the sink lock
 * is taken, and the metrics registry's lock is a leaf below it.
 */
class ShardSink
{
  public:
    explicit ShardSink(const ShardStream &stream) : stream_(stream) {}

    ShardSink(const ShardSink &) = delete;
    ShardSink &operator=(const ShardSink &) = delete;

    /** Point the stream at `<mergedPath>.shards/`, drop any buffered
     *  events, make this process the merger at exit, and arm. */
    void arm(const std::string &mergedPath);

    /** Disarm and drop any buffered events. */
    void disarm();

    /** Write this process's buffered events to its shard. */
    void flush();

    /** The merged-output path ("" when never armed or disarmed). */
    std::string mergedPath();

    /**
     * Record events: `format(buffer)` appends whole lines to the
     * buffer, under the sink lock (it may append none). Does nothing
     * when disarmed; counts one dropped event instead of formatting
     * once the shard has failed.
     */
    template <typename Format>
    void
    append(uint64_t tsNs, Format &&format)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!*stream_.armed)
            return;
        if (failed_) {
            countDropped(1);
            return;
        }
        format(pending_);
        if (pending_.size() >= stream_.bufferBytes ||
            tsNs - lastFlushNs_ >= kFlushIntervalNs)
            flushLocked(tsNs);
    }

    /**
     * Flush, disarm (so stragglers cannot recreate the directory),
     * then merge every shard of the stream into its merged file.
     * `accept` vets each parsed line beyond the numeric "ts" the sink
     * requires; `extend` (may be null) adds generated lines before
     * the sort. Returns zeros when the stream was not armed.
     */
    ShardMergeStats
    merge(const std::function<bool(const json::Value &)> &accept,
          const std::function<void(std::vector<ShardLine> &)> &extend =
              nullptr);

  private:
    /** Unflushed events drain to the shard at this cadence even under
     *  light load, so a killed worker loses at most a recent tail. */
    static constexpr uint64_t kFlushIntervalNs = 250ull * 1000 * 1000;

    void flushLocked(uint64_t nowNs);
    void failLocked(const std::string &what, int err, size_t unwritten);
    void countDropped(uint64_t events);
    void resetLocked();
    void closeLocked();
    void hookLocked();

    static void atExit();
    static void childAfterFork();

    const ShardStream stream_;
    std::mutex mutex_;
    std::string mergedPath_;
    std::string shardDir_;
    std::string pending_; ///< serialized JSONL not yet in the shard
    uint64_t lastFlushNs_ = 0;
    int fd_ = -1;
    pid_t originPid_ = 0; ///< the process that merges at exit
    bool failed_ = false; ///< the shard is unwritable: drop and count
    bool hooked_ = false;
    ShardSink *nextHooked_ = nullptr;
};

} // namespace obs
} // namespace xps

#endif // XPS_OBS_SHARD_HH
