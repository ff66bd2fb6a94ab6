/**
 * @file
 * The trace file tier (DESIGN.md §6, §13): with a trace directory set,
 * sharedTrace() maps content-addressed, digest-checked trace files
 * instead of generating the stream again. A mapped trace is the
 * generated one, ops and meta; a torn, mutated, stale or foreign file
 * is rejected, counted, regenerated and rewritten; a longer request
 * republishes a longer file that shorter requests share; nothing is
 * written above the cap or with no directory, where fileBackedTrace()
 * gives no trace; files cross fork; and a file's bytes are pinned to
 * kTraceFileVersion.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "workload/profile.hh"
#include "workload/trace.hh"

using namespace xps;
namespace fs = std::filesystem;

namespace
{

/** Bytes of a trace file's header; the ops start right after it. */
constexpr size_t kHeaderBytes = 48;

uint64_t
counter(const char *name)
{
    return Metrics::global().counter(name).get();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void
expectSameMeta(const TraceBuffer &a, const TraceBuffer &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.meta(), b.meta(), a.size()), 0);
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.robOccupancySum, b.robOccupancySum);
}

/** A fresh trace directory per test, and an empty registry around it,
 *  so every lookup starts from the files. */
class TraceStore : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("xps_traces_" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        setTraceDirectory(dir_);
        clearTraceRegistry();
    }

    void
    TearDown() override
    {
        setTraceDirectory("");
        clearTraceRegistry();
        fs::remove_all(dir_);
    }

    /** gzip's stream-0 trace file: `<fingerprint:016x>.<stream>.trace`
     *  under the trace directory. */
    std::string
    gzipFile() const
    {
        char name[64];
        std::snprintf(name, sizeof(name), "/%016llx.0.trace",
                      static_cast<unsigned long long>(
                          profileFingerprint(profileByName("gzip"))));
        return dir_ + name;
    }

    /** Every file name under the trace directory. */
    std::vector<std::string>
    files() const
    {
        std::vector<std::string> out;
        std::error_code ec;
        for (const auto &e : fs::directory_iterator(dir_, ec))
            out.push_back(e.path().filename().string());
        return out;
    }

    std::string dir_;
};

const WorkloadProfile &
gzip()
{
    return profileByName("gzip");
}

} // namespace

TEST_F(TraceStore, MappedTraceEqualsGeneratedOne)
{
    const uint64_t writes = counter("trace_store.writes");
    const auto generated = sharedTrace(gzip(), 0, 20000);
    EXPECT_EQ(counter("trace_store.writes"), writes + 1);
    const std::string path = gzipFile();
    EXPECT_EQ(files(), std::vector<std::string>{
                           fs::path(path).filename().string()});
    EXPECT_EQ(fs::file_size(path),
              kHeaderBytes + generated->size() * (sizeof(MicroOp) + 1));

    clearTraceRegistry();
    const uint64_t hits = counter("trace_store.hits");
    const uint64_t misses = counter("trace_cache.misses");
    const auto mapped = sharedTrace(gzip(), 0, 20000);
    EXPECT_EQ(counter("trace_store.hits"), hits + 1);
    EXPECT_EQ(counter("trace_cache.misses"), misses);
    EXPECT_NE(mapped.get(), generated.get());

    const TraceBuffer fresh(gzip(), 0, generated->size());
    EXPECT_TRUE(*mapped == fresh);
    expectSameMeta(*mapped, fresh);
    EXPECT_TRUE(*generated == fresh);
    expectSameMeta(*generated, fresh);
    // The registry then serves the mapped buffer itself.
    EXPECT_EQ(sharedTrace(gzip(), 0, 1000).get(), mapped.get());
    EXPECT_EQ(fileBackedTrace(gzip(), 0, 1000).get(), mapped.get());
}

// Trace files outlive the daemon, so a change to generation, decoding
// or the MicroOp layout must bump kTraceFileVersion, or a rebooted
// daemon replays the old stream. This pin fails on any such change
// until the version and the pin are bumped together.
TEST_F(TraceStore, FileBodyIsPinnedToTheFormatVersion)
{
    EXPECT_EQ(kTraceFileVersion, 1u);
    (void)sharedTrace(gzip(), 0, 2000);
    const std::string file = slurp(gzipFile());
    ASSERT_GT(file.size(), kHeaderBytes);
    uint64_t count = 0;
    uint64_t digest = 0;
    std::memcpy(&count, file.data() + 32, sizeof(count));
    std::memcpy(&digest, file.data() + 40, sizeof(digest));
    EXPECT_EQ(count, 2000 + kTraceSlackOps);
    EXPECT_EQ(digest64(file.data() + kHeaderBytes,
                       file.size() - kHeaderBytes),
              digest);
    EXPECT_EQ(digest, 0xab86eacfa658e2dcULL);
}

TEST_F(TraceStore, FileReplayMatchesStreamingOnAllProfiles)
{
    for (const WorkloadProfile &profile : spec2000int()) {
        SimOptions opts;
        opts.measureInstrs = 6000;
        const SimStats streamed =
            simulate(profile, CoreConfig::initial(), opts);
        (void)sharedTrace(profile, opts.streamId, opts.traceOps());
        clearTraceRegistry();
        const uint64_t hits = counter("trace_store.hits");
        opts.trace = sharedTrace(profile, opts.streamId, opts.traceOps());
        EXPECT_EQ(counter("trace_store.hits"), hits + 1) << profile.name;
        SCOPED_TRACE(profile.name);
        expectSameStats(simulate(profile, CoreConfig::initial(), opts),
                        streamed);
    }
    EXPECT_EQ(files().size(), spec2000int().size());
}

TEST_F(TraceStore, DamagedFilesAreRejectedRegeneratedAndRewritten)
{
    const auto generated = sharedTrace(gzip(), 0, 2000);
    const uint64_t n = generated->size();
    const std::string path = gzipFile();
    const std::string pristine = slurp(path);
    const size_t metaAt = kHeaderBytes + n * sizeof(MicroOp);
    ASSERT_EQ(pristine.size(), metaAt + n);

    auto truncated = [&](size_t bytes) {
        return [bytes](std::string &f) { f.resize(bytes); };
    };
    auto flipped = [](size_t at) {
        return [at](std::string &f) { f[at] ^= 0x10; };
    };
    auto field = [](size_t at, uint64_t value, size_t bytes) {
        return [=](std::string &f) { std::memcpy(&f[at], &value, bytes); };
    };
    uint64_t count = 0;
    std::memcpy(&count, pristine.data() + 32, sizeof(count));
    ASSERT_EQ(count, n);
    const std::vector<std::pair<std::string,
                                std::function<void(std::string &)>>>
        damage = {
            {"empty", truncated(0)},
            {"torn header", truncated(kHeaderBytes / 2)},
            {"header only", truncated(kHeaderBytes)},
            {"ops only", truncated(metaAt)},
            {"last meta byte gone", truncated(pristine.size() - 1)},
            {"flipped magic", flipped(0)},
            {"flipped version", flipped(8)},
            {"flipped layout", flipped(12)},
            {"flipped fingerprint", flipped(16)},
            {"flipped stream", flipped(24)},
            {"flipped count", flipped(32)},
            {"flipped digest", flipped(40)},
            {"flipped first op", flipped(kHeaderBytes)},
            {"flipped last op", flipped(metaAt - 1)},
            {"flipped op field", flipped(kHeaderBytes + 7 * 40 + 16)},
            {"flipped first meta", flipped(metaAt)},
            {"flipped last meta", flipped(pristine.size() - 1)},
            {"wrong version", field(8, kTraceFileVersion + 1, 4)},
            {"wrong layout", field(12, sizeof(MicroOp) - 8, 4)},
            {"wrong fingerprint",
             field(16, profileFingerprint(profileByName("gcc")), 8)},
            {"wrong stream", field(24, 1, 8)},
            {"count above the file", field(32, n + 1, 8)},
            {"count above the cap", field(32, kTraceFileMaxOps + 1, 8)},
        };
    for (const auto &[what, mutate] : damage) {
        SCOPED_TRACE(what);
        std::string bytes = pristine;
        mutate(bytes);
        ASSERT_NE(bytes, pristine);
        spit(path, bytes);
        clearTraceRegistry();
        const uint64_t rejects = counter("trace_store.rejects");
        const uint64_t writes = counter("trace_store.writes");
        const uint64_t misses = counter("trace_cache.misses");
        const auto again = sharedTrace(gzip(), 0, 2000);
        EXPECT_EQ(counter("trace_store.rejects"), rejects + 1);
        EXPECT_EQ(counter("trace_cache.misses"), misses + 1);
        EXPECT_EQ(counter("trace_store.writes"), writes + 1);
        EXPECT_TRUE(*again == *generated);
        expectSameMeta(*again, *generated);
        // Two writers of one trace write the same bytes.
        EXPECT_EQ(slurp(path), pristine);
    }
}

TEST_F(TraceStore, LongerRequestRepublishesAndShorterIsServedFromIt)
{
    const std::string path = gzipFile();
    const auto small = sharedTrace(gzip(), 0, 1000);
    clearTraceRegistry();

    const uint64_t writes = counter("trace_store.writes");
    const uint64_t rejects = counter("trace_store.rejects");
    const auto big = sharedTrace(gzip(), 0, 30000);
    EXPECT_EQ(counter("trace_store.writes"), writes + 1);
    EXPECT_EQ(counter("trace_store.rejects"), rejects);
    EXPECT_EQ(fs::file_size(path),
              kHeaderBytes + big->size() * (sizeof(MicroOp) + 1));

    clearTraceRegistry();
    const uint64_t hits = counter("trace_store.hits");
    const auto served = sharedTrace(gzip(), 0, 1000);
    EXPECT_EQ(counter("trace_store.hits"), hits + 1);
    EXPECT_EQ(counter("trace_store.writes"), writes + 1);
    EXPECT_EQ(served->size(), big->size());
    EXPECT_TRUE(*served == *big);
    for (uint64_t i = 0; i < small->size(); ++i)
        ASSERT_TRUE(small->ops()[i] == served->ops()[i]) << "op " << i;
    EXPECT_EQ(std::memcmp(small->meta(), served->meta(), small->size()),
              0);
}

TEST_F(TraceStore, NothingIsWrittenAboveTheCap)
{
    const uint64_t writes = counter("trace_store.writes");
    const auto longest = sharedTrace(gzip(), 0,
                                     kTraceFileMaxOps - kTraceSlackOps);
    EXPECT_EQ(longest->size(), kTraceFileMaxOps);
    EXPECT_EQ(counter("trace_store.writes"), writes + 1);
    fs::remove_all(dir_);
    clearTraceRegistry();

    // A one-off run streams rather than hold a trace no file shares.
    const uint64_t misses = counter("trace_cache.misses");
    EXPECT_EQ(fileBackedTrace(gzip(), 0,
                              kTraceFileMaxOps - kTraceSlackOps + 1),
              nullptr);
    EXPECT_EQ(counter("trace_cache.misses"), misses);
    const auto beyond = sharedTrace(gzip(), 0,
                                    kTraceFileMaxOps - kTraceSlackOps + 1);
    EXPECT_EQ(beyond->size(), kTraceFileMaxOps + 1);
    EXPECT_EQ(counter("trace_store.writes"), writes + 1);
    EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(TraceStore, NoDirectoryTouchesNoFile)
{
    setTraceDirectory("");
    EXPECT_EQ(fileBackedTrace(gzip(), 0, 3000), nullptr);
    const uint64_t writes = counter("trace_store.writes");
    const uint64_t hits = counter("trace_store.hits");
    (void)sharedTrace(gzip(), 0, 3000);
    clearTraceRegistry();
    (void)sharedTrace(gzip(), 0, 3000);
    EXPECT_EQ(counter("trace_store.writes"), writes);
    EXPECT_EQ(counter("trace_store.hits"), hits);
    EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(TraceStore, ForkedChildPublishesAndParentMaps)
{
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        const uint64_t writes = counter("trace_store.writes");
        (void)sharedTrace(gzip(), 0, 5000);
        ::_exit(counter("trace_store.writes") == writes + 1 ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    const uint64_t hits = counter("trace_store.hits");
    const uint64_t misses = counter("trace_cache.misses");
    const auto mapped = sharedTrace(gzip(), 0, 5000);
    EXPECT_EQ(counter("trace_store.hits"), hits + 1);
    EXPECT_EQ(counter("trace_cache.misses"), misses);
    const TraceBuffer fresh(gzip(), 0, mapped->size());
    EXPECT_TRUE(*mapped == fresh);
    expectSameMeta(*mapped, fresh);
}

TEST_F(TraceStore, RacingForkedWritersLeaveOneValidFile)
{
    // Both children generate and publish at once, released together
    // by the parent closing a pipe; the last rename wins.
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    std::vector<pid_t> children;
    for (int i = 0; i < 2; ++i) {
        const pid_t child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            ::close(gate[1]);
            char byte;
            (void)!::read(gate[0], &byte, 1);
            (void)sharedTrace(gzip(), 0, 40000);
            ::_exit(0);
        }
        children.push_back(child);
    }
    ::close(gate[0]);
    ::close(gate[1]);
    for (const pid_t child : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    EXPECT_EQ(files(), std::vector<std::string>{
                           fs::path(gzipFile()).filename().string()});
    const uint64_t hits = counter("trace_store.hits");
    const uint64_t rejects = counter("trace_store.rejects");
    const auto mapped = sharedTrace(gzip(), 0, 40000);
    EXPECT_EQ(counter("trace_store.hits"), hits + 1);
    EXPECT_EQ(counter("trace_store.rejects"), rejects);
    EXPECT_TRUE(*mapped == TraceBuffer(gzip(), 0, mapped->size()));
}

TEST_F(TraceStore, EachGeneratedBufferIsDecodedOnce)
{
    const WorkloadProfile &mcf = profileByName("mcf");
    const uint64_t decodes = counter("trace_cache.decodes");
    const auto first = sharedTrace(mcf, 0, 1000);
    EXPECT_EQ(counter("trace_cache.decodes"), decodes + 1);
    // A grow decodes only what it appends, once; hits and replays
    // decode nothing.
    const auto grown = sharedTrace(mcf, 0, 12000);
    EXPECT_EQ(counter("trace_cache.decodes"), decodes + 2);
    EXPECT_EQ(std::memcmp(first->meta(), grown->meta(), first->size()),
              0);
    SimOptions opts;
    opts.measureInstrs = 6000;
    opts.trace = sharedTrace(mcf, opts.streamId, opts.traceOps());
    (void)simulate(mcf, CoreConfig::initial(), opts);
    EXPECT_EQ(counter("trace_cache.decodes"), decodes + 2);
    clearTraceRegistry();
    (void)sharedTrace(mcf, 0, 12000); // mapped: nothing to decode
    EXPECT_EQ(counter("trace_cache.decodes"), decodes + 2);
}
