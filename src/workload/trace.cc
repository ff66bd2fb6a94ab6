#include "workload/trace.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <type_traits>
#include <utility>

#include "obs/tracer.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "workload/branch_predictor.hh"
#include "workload/generator.hh"

namespace xps
{

namespace
{

void
hashMix(uint64_t &h, uint64_t v)
{
    // FNV-1a over 64-bit lanes.
    h = (h ^ v) * 0x100000001b3ULL;
}

void
hashMix(uint64_t &h, double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    hashMix(h, bits);
}

} // namespace

uint64_t
profileFingerprint(const WorkloadProfile &p)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : p.name)
        hashMix(h, static_cast<uint64_t>(static_cast<uint8_t>(c)));
    hashMix(h, p.seed);
    hashMix(h, p.fracLoad);
    hashMix(h, p.fracStore);
    hashMix(h, p.fracCondBranch);
    hashMix(h, p.fracJump);
    hashMix(h, p.fracMul);
    hashMix(h, p.meanDepDistance);
    hashMix(h, p.fracTwoSrc);
    hashMix(h, p.loadChaseProb);
    hashMix(h, static_cast<uint64_t>(p.numBranchSites));
    hashMix(h, p.fracBiasedSites);
    hashMix(h, p.biasedTakenProb);
    hashMix(h, p.fracLoopSites);
    hashMix(h, p.meanLoopTrip);
    hashMix(h, p.fracPatternSites);
    hashMix(h, p.siteZipfS);
    hashMix(h, p.workingSetBytes);
    hashMix(h, p.heapZipfS);
    hashMix(h, p.fracHot);
    hashMix(h, p.hotRegionBytes);
    hashMix(h, p.fracStream);
    hashMix(h, static_cast<uint64_t>(p.numStreams));
    hashMix(h, static_cast<uint64_t>(p.streamStrideBytes));
    hashMix(h, p.streamWindowBytes);
    return h;
}

namespace
{

/** A generated trace's own arrays, kept alive by its buffers. */
struct OwnedTrace
{
    std::vector<MicroOp> ops;
    std::vector<uint8_t> meta;
};

/**
 * A generator and predictor paused at the end of the trace they last
 * extended: extend() appends and decodes only the new ops. Each
 * prediction depends only on the preceding branch outcomes, so the
 * meta bits equal what a core would compute live at fetch — whatever
 * window of the buffer it runs.
 */
struct TraceWriter
{
    TraceWriter(const WorkloadProfile &profile, uint64_t stream_id)
        : gen(profile, stream_id)
    {
    }

    /** A copy of `prefix` (null, or what this writer generated last),
     *  extended to `want` ops. Copy-on-grow: readers of the old
     *  buffer are never disturbed. */
    std::shared_ptr<const OwnedTrace>
    extend(const TraceBuffer *prefix, uint64_t want,
           const WorkloadProfile &profile, const char *kind)
    {
        auto out = std::make_shared<OwnedTrace>();
        out->ops.reserve(want);
        out->meta.reserve(want);
        if (prefix) {
            out->ops.assign(prefix->ops().begin(), prefix->ops().end());
            out->meta.assign(prefix->meta(),
                             prefix->meta() + prefix->size());
        }
        const size_t from = out->ops.size();
        {
            obs::ScopedSpan span("trace.generate", "trace", [&] {
                return obs::Args()
                    .add("workload", profile.name)
                    .add("kind", kind)
                    .add("want_ops", want);
            });
            while (out->ops.size() < want)
                out->ops.push_back(gen.next());
        }
        Metrics::global().counter("trace_cache.decodes").add();
        obs::ScopedSpan span("trace.decode", "trace", [&] {
            return obs::Args()
                .add("workload", profile.name)
                .add("ops", static_cast<uint64_t>(want - from));
        });
        out->meta.resize(out->ops.size());
        for (size_t i = from; i < out->ops.size(); ++i) {
            const MicroOp &op = out->ops[i];
            uint8_t m = decodeMicroOp(op);
            if (op.cls == OpClass::CondBranch &&
                !predictor.predict(op.pc, op.taken))
                m |= kMetaMispredict;
            out->meta[i] = m;
        }
        return out;
    }

    SyntheticWorkload gen;
    BranchPredictor predictor; ///< about 17 KB of tables
};

} // namespace

TraceBuffer::TraceBuffer(const WorkloadProfile &profile,
                         uint64_t stream_id, uint64_t ops)
    : profileName_(profile.name),
      fingerprint_(profileFingerprint(profile)), streamId_(stream_id)
{
    std::shared_ptr<const OwnedTrace> owned =
        TraceWriter(profile, stream_id)
            .extend(nullptr, ops, profile, "private");
    ops_ = owned->ops.data();
    meta_ = owned->meta.data();
    size_ = owned->ops.size();
    storage_ = std::move(owned);
}

TraceBuffer::TraceBuffer(const WorkloadProfile &profile,
                         uint64_t stream_id,
                         std::shared_ptr<const void> storage,
                         const MicroOp *ops, const uint8_t *meta,
                         uint64_t size)
    : profileName_(profile.name),
      fingerprint_(profileFingerprint(profile)), streamId_(stream_id),
      storage_(std::move(storage)), ops_(ops), meta_(meta), size_(size)
{
}

bool
TraceBuffer::operator==(const TraceBuffer &other) const
{
    if (fingerprint_ != other.fingerprint_ ||
        streamId_ != other.streamId_ || size_ != other.size_) {
        return false;
    }
    for (size_t i = 0; i < size_; ++i) {
        if (!(ops_[i] == other.ops_[i]))
            return false;
    }
    return true;
}

TraceCursor::TraceCursor(std::shared_ptr<const TraceBuffer> buffer)
    : buffer_(std::move(buffer))
{
    if (!buffer_)
        fatal("TraceCursor: null trace buffer");
    data_ = buffer_->ops().data();
    size_ = buffer_->size();
}

void
TraceCursor::exhausted() const
{
    panic("TraceCursor: trace '%s' (stream %llu) exhausted after "
          "%llu ops; size the buffer with kTraceSlackOps (use "
          "sharedTrace())",
          buffer_->profileName().c_str(),
          static_cast<unsigned long long>(buffer_->streamId()),
          static_cast<unsigned long long>(size_));
}

// --- the file tier ---------------------------------------------------------

namespace
{

/**
 * A trace file: this header, then the ops as MicroOp records, then one
 * meta byte per op; `digest` is digest64() of everything after the
 * header. The ops are mapped in place, so the header keeps them
 * 8-byte aligned.
 */
struct TraceFileHeader
{
    uint64_t magic;
    uint32_t version;
    uint32_t opBytes; ///< sizeof(MicroOp): the layout the ops have
    uint64_t fingerprint;
    uint64_t stream;
    uint64_t ops;
    uint64_t digest;
};
static_assert(sizeof(TraceFileHeader) == 48 &&
              sizeof(TraceFileHeader) % alignof(MicroOp) == 0);
static_assert(std::is_trivially_copyable_v<MicroOp> &&
              std::is_standard_layout_v<MicroOp>);

constexpr uint64_t kTraceMagic = 0x4543415254535058ULL; // "XPSTRACE"
constexpr uint64_t kOpFileBytes = sizeof(MicroOp) + 1;

uint64_t
traceFileBytes(uint64_t ops)
{
    return sizeof(TraceFileHeader) + ops * kOpFileBytes;
}

/** Serialize a trace file. Each op is written field by field into
 *  zeroed bytes, so its padding is zero and two writers of one trace
 *  write identical files. */
std::string
encodeTraceFile(const TraceBuffer &buf)
{
    const uint64_t n = buf.size();
    std::string out(traceFileBytes(n), '\0');
    char *body = out.data() + sizeof(TraceFileHeader);
    for (uint64_t i = 0; i < n; ++i) {
        const MicroOp &op = buf.ops()[i];
        char *rec = body + i * sizeof(MicroOp);
        auto put = [rec](size_t offset, const auto &field) {
            std::memcpy(rec + offset, &field, sizeof(field));
        };
        put(offsetof(MicroOp, cls), op.cls);
        put(offsetof(MicroOp, numSrcs), op.numSrcs);
        put(offsetof(MicroOp, srcDist), op.srcDist);
        put(offsetof(MicroOp, addr), op.addr);
        put(offsetof(MicroOp, taken), op.taken);
        put(offsetof(MicroOp, pc), op.pc);
    }
    std::memcpy(body + n * sizeof(MicroOp), buf.meta(), n);
    TraceFileHeader h{kTraceMagic,
                      kTraceFileVersion,
                      sizeof(MicroOp),
                      buf.fingerprint(),
                      buf.streamId(),
                      n,
                      digest64(body, n * kOpFileBytes)};
    std::memcpy(out.data(), &h, sizeof(h));
    return out;
}

/** An mmap'd file, unmapped when its last buffer dies. */
struct Mapping
{
    void *addr = nullptr;
    size_t bytes = 0;
    Mapping() = default;
    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;
    ~Mapping()
    {
        if (addr)
            ::munmap(addr, bytes);
    }
};

enum class FileState
{
    Absent, ///< no file
    Short,  ///< a valid header for fewer ops than wanted
    Reject, ///< torn, mutated, stale or foreign
    Hit,
};

/**
 * Map `path` read-only and verify it is the (fingerprint, stream)
 * trace, holding at least `want` ops. The header's count is trusted
 * only once it agrees with the file size and the cap; the body only
 * once its digest matches. Writers replace the file by rename and
 * never truncate it, so a mapping stays valid for its lifetime.
 */
FileState
loadTraceFile(const std::string &path, uint64_t fingerprint,
              uint64_t stream, uint64_t want,
              std::shared_ptr<const Mapping> &mapping,
              TraceFileHeader &header)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return FileState::Absent;
    struct stat st {};
    if (::fstat(fd, &st) != 0 ||
        static_cast<uint64_t>(st.st_size) < sizeof(TraceFileHeader)) {
        ::close(fd);
        return FileState::Reject;
    }
    auto map = std::make_shared<Mapping>();
    map->bytes = static_cast<size_t>(st.st_size);
    void *addr =
        ::mmap(nullptr, map->bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (addr == MAP_FAILED)
        return FileState::Reject;
    map->addr = addr;
    std::memcpy(&header, addr, sizeof(header));
    if (header.magic != kTraceMagic ||
        header.version != kTraceFileVersion ||
        header.opBytes != sizeof(MicroOp) ||
        header.fingerprint != fingerprint || header.stream != stream ||
        header.ops > kTraceFileMaxOps ||
        traceFileBytes(header.ops) != map->bytes)
        return FileState::Reject;
    if (header.ops < want)
        return FileState::Short;
    const auto *body = static_cast<const unsigned char *>(addr) +
                       sizeof(TraceFileHeader);
    if (digest64(body, header.ops * kOpFileBytes) != header.digest)
        return FileState::Reject;
    mapping = std::move(map);
    return FileState::Hit;
}

} // namespace

// --- the registry ----------------------------------------------------------

namespace
{

struct RegistryEntry
{
    /** Paused at buf's end for a generated buffer; null for a mapped
     *  one, which regenerates from op 0 to grow. */
    std::unique_ptr<TraceWriter> writer;
    std::shared_ptr<const TraceBuffer> buf;
};

std::mutex registryMutex;
std::map<std::pair<uint64_t, uint64_t>, RegistryEntry> &
registry()
{
    static std::map<std::pair<uint64_t, uint64_t>, RegistryEntry> r;
    return r;
}

std::string &
traceDirectory()
{
    static std::string dir;
    return dir;
}

std::string
filePathLocked(uint64_t fingerprint, uint64_t stream_id)
{
    const std::string &dir = traceDirectory();
    if (dir.empty())
        return {};
    char name[64];
    std::snprintf(name, sizeof(name), "/%016llx.%llu.trace",
                  static_cast<unsigned long long>(fingerprint),
                  static_cast<unsigned long long>(stream_id));
    return dir + name;
}

void
noteHit(const WorkloadProfile &profile, const TraceBuffer &buf,
        bool file)
{
    Metrics::global().counter("trace_cache.hits").add();
    obs::instant("trace_cache.hit", "trace", [&] {
        return obs::Args()
            .add("workload", profile.name)
            .add("ops", buf.size())
            .add("file", file ? 1 : 0);
    });
}

} // namespace

std::shared_ptr<const TraceBuffer>
sharedTrace(const WorkloadProfile &profile, uint64_t stream_id,
            uint64_t min_ops)
{
    const uint64_t want = min_ops + kTraceSlackOps;
    const uint64_t fingerprint = profileFingerprint(profile);
    Metrics &metrics = Metrics::global();

    std::lock_guard<std::mutex> lock(registryMutex);
    RegistryEntry &entry = registry()[{fingerprint, stream_id}];
    if (entry.buf && entry.buf->size() >= want) {
        noteHit(profile, *entry.buf, false);
        return entry.buf;
    }

    const std::string path = want <= kTraceFileMaxOps
                                 ? filePathLocked(fingerprint, stream_id)
                                 : std::string();
    if (!path.empty()) {
        std::shared_ptr<const Mapping> mapping;
        TraceFileHeader header{};
        FileState load = FileState::Absent;
        {
            obs::ScopedSpan span("trace.load", "trace", [&] {
                return obs::Args()
                    .add("workload", profile.name)
                    .add("want_ops", want);
            });
            load = loadTraceFile(path, fingerprint, stream_id, want,
                                 mapping, header);
        }
        if (load == FileState::Hit) {
            metrics.counter("trace_store.hits").add();
            const auto *base =
                static_cast<const char *>(mapping->addr) +
                sizeof(TraceFileHeader);
            const auto *ops = reinterpret_cast<const MicroOp *>(base);
            const auto *meta = reinterpret_cast<const uint8_t *>(
                base + header.ops * sizeof(MicroOp));
            entry.writer.reset();
            entry.buf = std::make_shared<const TraceBuffer>(
                profile, stream_id, std::move(mapping), ops, meta,
                header.ops);
            noteHit(profile, *entry.buf, true);
            return entry.buf;
        }
        if (load == FileState::Reject) {
            metrics.counter("trace_store.rejects").add();
            warn("trace store: rejecting %s; regenerating it",
                 path.c_str());
        }
    }

    const bool grow = entry.buf != nullptr;
    metrics.counter(grow ? "trace_cache.grows" : "trace_cache.misses")
        .add();
    obs::instant(grow ? "trace_cache.grow" : "trace_cache.miss", "trace",
                 [&] {
                     return obs::Args()
                         .add("workload", profile.name)
                         .add("want_ops", want);
                 });
    const TraceBuffer *prefix = entry.buf.get();
    if (!entry.writer) {
        // A mapped buffer keeps no paused generator: start over.
        entry.writer = std::make_unique<TraceWriter>(profile, stream_id);
        prefix = nullptr;
    }
    std::shared_ptr<const OwnedTrace> owned = entry.writer->extend(
        prefix, want, profile, grow ? "grow" : "miss");
    const MicroOp *ops = owned->ops.data();
    const uint8_t *meta = owned->meta.data();
    entry.buf = std::make_shared<const TraceBuffer>(
        profile, stream_id, std::move(owned), ops, meta, want);
    // Another worker may have published while this one generated:
    // keep its file when it already serves this request, so a shorter
    // trace never replaces a longer one. A race inside the write
    // itself can still let the shorter file win; the next longer
    // request then regenerates once.
    std::shared_ptr<const Mapping> published;
    TraceFileHeader header{};
    if (!path.empty() &&
        loadTraceFile(path, fingerprint, stream_id, want, published,
                      header) != FileState::Hit) {
        atomicWriteFile(path, encodeTraceFile(*entry.buf), "serve.trace");
        metrics.counter("trace_store.writes").add();
    }
    return entry.buf;
}

std::shared_ptr<const TraceBuffer>
fileBackedTrace(const WorkloadProfile &profile, uint64_t stream_id,
                uint64_t min_ops)
{
    {
        std::lock_guard<std::mutex> lock(registryMutex);
        if (traceDirectory().empty() ||
            min_ops + kTraceSlackOps > kTraceFileMaxOps)
            return nullptr;
    }
    return sharedTrace(profile, stream_id, min_ops);
}

void
clearTraceRegistry()
{
    std::lock_guard<std::mutex> lock(registryMutex);
    registry().clear();
}

void
setTraceDirectory(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(registryMutex);
    traceDirectory() = dir;
}

} // namespace xps
