/**
 * @file
 * Shared immutable trace cache. A micro-op stream depends only on
 * (profile, streamId, length), yet the streaming generator re-derives
 * it — several RNG draws, a Zipf inversion and a geometric draw per
 * op — for every one of the thousands of configuration evaluations the
 * annealer performs per workload. A TraceBuffer materializes the
 * stream once, with its decoded meta, into flat, cache-friendly
 * arrays that are then shared read-only (via shared_ptr) across every
 * simulation of that workload: annealing iterations, the
 * cross-configuration matrix, and the surrogate/subsetting experiments
 * all replay the same buffer from any number of threads concurrently.
 *
 * Sharing rules (DESIGN.md §6):
 *  - a TraceBuffer is immutable after construction; concurrent readers
 *    need no synchronization;
 *  - ownership is shared_ptr<const TraceBuffer>; a replay cursor keeps
 *    its buffer alive, so callers may drop their handle mid-run;
 *  - sharedTrace() is the memoizing registry: one buffer per
 *    (profile fingerprint, streamId), grown monotonically when a
 *    longer run asks for more ops (existing handles stay valid — the
 *    registry swaps in a longer buffer instead of mutating);
 *  - replay is bit-identical to streaming generation: the buffer is
 *    filled by the same SyntheticWorkload the fallback path would run,
 *    and its meta by the same predictor the streaming core consults;
 *  - with a trace directory set (only xps-serve sets one), the
 *    registry is backed by content-addressed, digest-checked trace
 *    files that every forked job maps read-only instead of generating
 *    the stream again (DESIGN.md §6, §13).
 */

#ifndef XPS_WORKLOAD_TRACE_HH
#define XPS_WORKLOAD_TRACE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "workload/micro_op.hh"
#include "workload/profile.hh"

namespace xps
{

/**
 * Extra ops a trace carries beyond the requested measurement+warmup
 * length: the core fetches ahead of commit, so a run consumes up to
 * ROB (<= 1024) + fetch buffer (~140) ops past the commit target.
 */
constexpr uint64_t kTraceSlackOps = 8192;

/** Longest trace the file tier shares: 2^18 ops, about 10.7 MB at
 *  41 B per op. Longer traces stay in memory only. */
constexpr uint64_t kTraceFileMaxOps = uint64_t{1} << 18;

/** Trace file format version. Bump it whenever generation, decoding
 *  or the MicroOp layout changes: a file of another version is
 *  rejected and regenerated. */
constexpr uint32_t kTraceFileVersion = 1;

/** Order-insensitive 64-bit digest of every profile parameter; two
 *  profiles with equal fingerprints generate identical streams. */
uint64_t profileFingerprint(const WorkloadProfile &profile);

/**
 * An immutable, pre-generated micro-op stream for one workload, with
 * one decoded meta byte per op (decodeMicroOp plus the branch
 * predictor's outcome). The tournament predictor's state is a pure
 * function of the branch-op subsequence from position 0 — independent
 * of core configuration and of where the warmup/measure split falls —
 * so every prediction the core would make during replay is made once
 * per trace and shared by every configuration evaluation (and every
 * lane of a batched run). The arrays are either the buffer's own or a
 * read-only mapping of a trace file that the buffer keeps alive.
 */
class TraceBuffer
{
  public:
    /** Generate and decode `ops` micro-ops of (profile, stream_id)
     *  eagerly. */
    TraceBuffer(const WorkloadProfile &profile, uint64_t stream_id,
                uint64_t ops);

    /** Adopt a generated stream from position 0 and its decoded meta
     *  (the registry's paths); `storage` keeps `ops` and `meta`
     *  alive. */
    TraceBuffer(const WorkloadProfile &profile, uint64_t stream_id,
                std::shared_ptr<const void> storage, const MicroOp *ops,
                const uint8_t *meta, uint64_t size);

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    std::span<const MicroOp> ops() const { return {ops_, size_}; }
    const uint8_t *meta() const { return meta_; }
    uint64_t size() const { return size_; }
    const std::string &profileName() const { return profileName_; }
    uint64_t fingerprint() const { return fingerprint_; }
    uint64_t streamId() const { return streamId_; }

    /** Same workload identity and identical op sequence. */
    bool operator==(const TraceBuffer &other) const;
    bool operator!=(const TraceBuffer &other) const
    {
        return !(*this == other);
    }

  private:
    std::string profileName_;
    uint64_t fingerprint_;
    uint64_t streamId_;
    std::shared_ptr<const void> storage_;
    const MicroOp *ops_;
    const uint8_t *meta_;
    uint64_t size_;
};

/**
 * Read-only replay cursor over a shared TraceBuffer. next() matches
 * SyntheticWorkload::next() so the core can consume either; running
 * past the end is fatal (size the buffer with kTraceSlackOps — the
 * registry does).
 */
class TraceCursor
{
  public:
    explicit TraceCursor(std::shared_ptr<const TraceBuffer> buffer);

    const MicroOp &
    next()
    {
        if (pos_ >= size_)
            exhausted();
        return data_[pos_++];
    }

    uint64_t generated() const { return pos_; }
    const TraceBuffer &buffer() const { return *buffer_; }

  private:
    [[noreturn]] void exhausted() const;

    std::shared_ptr<const TraceBuffer> buffer_;
    const MicroOp *data_;
    uint64_t size_;
    uint64_t pos_ = 0;
};

/**
 * Memoized per-(profile, streamId) trace registry. Returns a buffer
 * with at least `min_ops` + kTraceSlackOps micro-ops, generating or
 * growing it on first need; subsequent calls share the same buffer.
 * Thread-safe; the returned buffer is safe to read concurrently.
 *
 * With a trace directory set and at most kTraceFileMaxOps wanted, a
 * miss maps `<dir>/<fingerprint>.<stream>.trace` when it holds enough
 * ops and passes every check (trace_store.hits), and otherwise
 * generates the stream from op 0 and publishes it there by atomic
 * rename (trace_store.writes), replacing a rejected or shorter file
 * (trace_store.rejects counts the rejected) unless another job
 * published a long enough one meanwhile.
 */
std::shared_ptr<const TraceBuffer>
sharedTrace(const WorkloadProfile &profile, uint64_t stream_id,
            uint64_t min_ops);

/**
 * sharedTrace()'s buffer when the trace directory shares it with other
 * jobs (a directory is set and at most kTraceFileMaxOps are wanted);
 * otherwise null, and the caller streams. A one-off run, such as a
 * serve whatif, replays what some job published, but never holds a
 * trace that only it would read: that costs 41 B per op of memory
 * for the whole run, and more time than streaming.
 */
std::shared_ptr<const TraceBuffer>
fileBackedTrace(const WorkloadProfile &profile, uint64_t stream_id,
                uint64_t min_ops);

/** Drop all memoized traces (tests / memory pressure). Outstanding
 *  shared_ptr handles remain valid. */
void clearTraceRegistry();

/**
 * Back sharedTrace() with trace files under `dir` (created on first
 * write), or with none when `dir` is empty (the default). Process-
 * wide: xps-serve sets it once, before its pool forks, so every job
 * inherits it; nothing else does. Not thread-safe against concurrent
 * sharedTrace() calls.
 */
void setTraceDirectory(const std::string &dir);

} // namespace xps

#endif // XPS_WORKLOAD_TRACE_HH
