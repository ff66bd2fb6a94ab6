/**
 * @file
 * Corruption-injection and cache-validation battery (DESIGN.md §7):
 * torn/garbage/stale CSV caches are recomputed, never half-parsed or
 * crashed on; every CoreConfig codec cleanly rejects each mutated
 * field; the Table-4/5 cache manifests invalidate on profile or
 * configuration changes; PerfMatrix::build resumes per cell from a
 * partial file and discards foreign/torn ones; and a differential
 * TEST_P sweep proves streaming and traced simulation bit-identical
 * on randomized profiles.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "comm/experiments.hh"
#include "comm/perf_matrix.hh"
#include "explore/checkpoint.hh"
#include "explore/explorer.hh"
#include "explore/supervisor.hh"
#include "serve/protocol.hh"
#include "sim/simulator.hh"
#include "util/atomic_file.hh"
#include "util/csv.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "workload/trace.hh"

#include "config_codecs.hh"

using namespace xps;

namespace
{

// Budget::get() resolves XPS_RESULTS_DIR once per process; point it
// at a scratch directory before anything can have touched it, so the
// table4/table5 cache tests never see (or clobber) real results.
const std::string &
resultsDir()
{
    static const std::string dir = [] {
        const auto d = std::filesystem::temp_directory_path() /
                       ("xps_robust_" + std::to_string(::getpid()));
        std::filesystem::create_directories(d);
        ::setenv("XPS_RESULTS_DIR", d.c_str(), 1);
        return d.string();
    }();
    return dir;
}

const bool kEnvReady = !resultsDir().empty();

/** Removes resultsDir() when the test process exits. Forked children
 *  (death tests, pool workers) inherit this object, so only the
 *  process that created the directory removes it. Defined after
 *  kEnvReady, it is destroyed before the directory's name. */
struct ResultsDirCleanup
{
    const pid_t owner = ::getpid();
    ~ResultsDirCleanup()
    {
        std::error_code ec;
        if (::getpid() == owner)
            std::filesystem::remove_all(resultsDir(), ec);
    }
} kResultsDirCleanup;

std::string
slurp(const std::string &path)
{
    std::string content;
    EXPECT_TRUE(readFile(path, content)) << path;
    return content;
}

CsvDoc
sampleDoc()
{
    CsvDoc doc;
    doc.header = {"name", "value"};
    doc.rows = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
    return doc;
}

CsvManifest
sampleManifest()
{
    CsvManifest m;
    m.set("kind", std::string("sample"));
    m.set("budget", uint64_t{42});
    return m;
}

std::string
tmpFile(const std::string &name)
{
    return resultsDir() + "/" + name;
}

/** `text` with its first occurrence of `from` replaced by `to`. */
std::string
mutate(std::string text, const std::string &from, const std::string &to)
{
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << "no '" << from << "'";
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

} // namespace

// --- csv cache validation --------------------------------------------------

TEST(CsvValidation, AcceptsIntactManifestedFile)
{
    const std::string path = tmpFile("ok.csv");
    writeCsv(path, sampleDoc(), sampleManifest());
    CsvDoc doc;
    ASSERT_TRUE(readCsvValidated(path, doc, sampleManifest()));
    EXPECT_EQ(doc.rows, sampleDoc().rows);
    EXPECT_EQ(doc.header, sampleDoc().header);
    // The plain reader still parses it (comments skipped).
    CsvDoc plain;
    ASSERT_TRUE(readCsv(path, plain));
    EXPECT_EQ(plain.rows, sampleDoc().rows);
}

TEST(CsvValidation, RejectsMissingFile)
{
    CsvDoc doc;
    EXPECT_FALSE(readCsvValidated(tmpFile("never_written.csv"), doc,
                                  sampleManifest()));
}

TEST(CsvValidation, RejectsFileWithoutManifest)
{
    const std::string path = tmpFile("bare.csv");
    writeCsv(path, sampleDoc()); // no-manifest writer
    CsvDoc doc;
    EXPECT_FALSE(readCsvValidated(path, doc, sampleManifest()));
}

TEST(CsvValidation, RejectsMismatchedManifest)
{
    const std::string path = tmpFile("stale.csv");
    writeCsv(path, sampleDoc(), sampleManifest());
    CsvManifest other = sampleManifest();
    other.set("budget", uint64_t{43});
    CsvDoc doc;
    EXPECT_FALSE(readCsvValidated(path, doc, other));
    // Extra key counts as a mismatch too.
    CsvManifest extra = sampleManifest();
    extra.set("added", std::string("x"));
    EXPECT_FALSE(readCsvValidated(path, doc, extra));
}

TEST(CsvValidation, RejectsEveryTruncationPoint)
{
    const std::string path = tmpFile("torn.csv");
    writeCsv(path, sampleDoc(), sampleManifest());
    const std::string full = slurp(path);
    // A crash can tear the file at any byte; all prefixes must be
    // rejected (the final footer line is what proves completeness).
    for (size_t len = 0; len < full.size(); ++len) {
        atomicWriteFile(path, full.substr(0, len));
        CsvDoc doc;
        ASSERT_FALSE(readCsvValidated(path, doc, sampleManifest()))
            << "accepted a " << len << "-byte prefix of "
            << full.size();
    }
}

TEST(CsvValidation, RejectsGarbageWithoutCrashing)
{
    const std::string path = tmpFile("garbage.csv");
    for (const char *garbage :
         {"\x01\x02\x03\xff", "just some text\nwith lines\n",
          "# xps-cache-manifest v1\nnot=even close"}) {
        atomicWriteFile(path, garbage);
        CsvDoc doc;
        EXPECT_FALSE(readCsvValidated(path, doc, sampleManifest()));
    }
}

TEST(CsvValidation, RejectsRowCountMismatch)
{
    const std::string path = tmpFile("shortrows.csv");
    writeCsv(path, sampleDoc(), sampleManifest());
    std::string full = slurp(path);
    // Drop one data row but keep the footer: count disagrees.
    const size_t b_at = full.find("b,2\n");
    ASSERT_NE(b_at, std::string::npos);
    full.erase(b_at, 4);
    atomicWriteFile(path, full);
    CsvDoc doc;
    EXPECT_FALSE(readCsvValidated(path, doc, sampleManifest()));
}

// --- csv rejection diagnostics (DESIGN.md §13.4) ---------------------------

TEST(CsvRejectReason, ClassifiesEveryCause)
{
    CsvDoc doc;
    CsvReject why = CsvReject::Malformed;

    // Accepted: the reason is reset to None.
    const std::string ok = tmpFile("why_ok.csv");
    writeCsv(ok, sampleDoc(), sampleManifest());
    EXPECT_TRUE(readCsvValidated(ok, doc, sampleManifest(), why));
    EXPECT_EQ(why, CsvReject::None);

    EXPECT_FALSE(readCsvValidated(tmpFile("why_missing.csv"), doc,
                                  sampleManifest(), why));
    EXPECT_EQ(why, CsvReject::Missing);

    const std::string bare = tmpFile("why_bare.csv");
    writeCsv(bare, sampleDoc()); // no-manifest writer
    EXPECT_FALSE(readCsvValidated(bare, doc, sampleManifest(), why));
    EXPECT_EQ(why, CsvReject::NoManifest);

    // A schema difference is a version mismatch even when other keys
    // differ too: priority version > fingerprint > knob.
    CsvManifest v1 = sampleManifest();
    v1.set("schema", std::string("demo v1"));
    v1.set("profile.gzip", std::string("aaaa"));
    const std::string versioned = tmpFile("why_version.csv");
    writeCsv(versioned, sampleDoc(), v1);
    CsvManifest v2 = v1;
    v2.set("schema", std::string("demo v2"));
    v2.set("profile.gzip", std::string("bbbb"));
    v2.set("budget", uint64_t{43});
    EXPECT_FALSE(readCsvValidated(versioned, doc, v2, why));
    EXPECT_EQ(why, CsvReject::VersionMismatch);

    // Same schema, different profile fingerprint: the cache belongs
    // to different inputs.
    CsvManifest fp = v1;
    fp.set("profile.gzip", std::string("bbbb"));
    fp.set("budget", uint64_t{43});
    EXPECT_FALSE(readCsvValidated(versioned, doc, fp, why));
    EXPECT_EQ(why, CsvReject::FingerprintMismatch);

    // Same schema and fingerprints, different knob.
    CsvManifest knob = v1;
    knob.set("budget", uint64_t{43});
    EXPECT_FALSE(readCsvValidated(versioned, doc, knob, why));
    EXPECT_EQ(why, CsvReject::KnobMismatch);

    // A torn tail (the final newline lost mid-write) is truncation,
    // not garbage.
    const std::string torn = tmpFile("why_torn.csv");
    writeCsv(torn, sampleDoc(), sampleManifest());
    const std::string full = slurp(torn);
    atomicWriteFile(torn, full.substr(0, full.size() - 1));
    EXPECT_FALSE(readCsvValidated(torn, doc, sampleManifest(), why));
    EXPECT_EQ(why, CsvReject::Truncated);

    const std::string garbage = tmpFile("why_garbage.csv");
    atomicWriteFile(garbage, "\x01\x02\x03garbage\nrows,here");
    EXPECT_FALSE(readCsvValidated(garbage, doc, sampleManifest(), why));
    EXPECT_EQ(why, CsvReject::Malformed);
}

TEST(CsvRejectReason, RejectionsBumpTheirCounters)
{
    Metrics &metrics = Metrics::global();
    const uint64_t before =
        metrics.counter("cache.reject_reason.knob_mismatch").get();

    const std::string path = tmpFile("why_counted.csv");
    writeCsv(path, sampleDoc(), sampleManifest());
    CsvManifest other = sampleManifest();
    other.set("budget", uint64_t{1234});
    CsvDoc doc;
    // Both overloads classify and count, so the 3-arg caller's
    // metrics dump explains its "recomputing" warnings too.
    EXPECT_FALSE(readCsvValidated(path, doc, other));
    CsvReject why = CsvReject::None;
    EXPECT_FALSE(readCsvValidated(path, doc, other, why));
    EXPECT_EQ(why, CsvReject::KnobMismatch);
    EXPECT_EQ(
        metrics.counter("cache.reject_reason.knob_mismatch").get(),
        before + 2);
}

// --- config codecs: every mutated field is a clean reject ------------------

using namespace xps::codec_test;

TEST(CoreConfig, EveryCodecRejectsEveryMutatedField)
{
    // Each field x each codec: a value below and above the range, a
    // sign, a fraction, trailing text and a non-power-of-two are
    // clean rejects, never a fatal or a crash.
    const CoreConfig base = CoreConfig::initial();
    const std::vector<std::string> cells = base.toCsvRow();
    const std::vector<std::string> json = protocolCells(base);
    const std::string ckpt = suiteCheckpointOf(base);
    const std::string config_line =
        "config current " + join(cells, ' ');
    const std::string memo_value = " " + formatHexDouble(1.5);
    const std::string memo_line =
        "memo " + base.memoKey() + memo_value;
    for (size_t i = 0; i < configFields().size(); ++i) {
        const ConfigField &f = configFields()[i];
        const std::string v = cells[1 + i];
        const std::string below =
            jsonNumber(f.isFloat() ? f.lo : f.lo - 1);
        const std::string above =
            jsonNumber(f.isFloat() ? f.hi : f.hi + 1);
        // (CSV/checkpoint/memo cell, protocol value) pairs.
        std::vector<std::pair<std::string, std::string>> bad = {
            {below, below},
            {above, above},
            {"-" + v, "-" + v},
            {"+" + v, "\"+" + v + "\""},
            {v + "x", "\"" + v + "x\""},
            {"", "\"\""},
        };
        if (!f.isFloat())
            bad.push_back({v + ".5", v + ".5"});
        if (f.pow2) {
            const std::string odd = jsonNumber(f.get(base) * 3 / 2);
            bad.push_back({odd, odd});
        }
        for (const auto &[cell, value] : bad) {
            SCOPED_TRACE(std::string(f.name) + " = '" + cell + "'");
            std::vector<std::string> row = cells;
            row[1 + i] = cell;
            CoreConfig out;
            EXPECT_FALSE(
                CoreConfig::fromCsvRow(CoreConfig::csvHeader(), row, out));
            EXPECT_FALSE(
                CoreConfig::fromMemoKey(join(row, '|', 1), out));

            SuiteCheckpoint sc;
            std::string text = ckpt;
            text.replace(text.find(config_line), config_line.size(),
                         "config current " + join(row, ' '));
            EXPECT_FALSE(parseSuiteCheckpoint(text, CsvManifest{}, sc));
            text = ckpt;
            text.replace(text.find(memo_line), memo_line.size(),
                         "memo " + join(row, '|', 1) + memo_value);
            EXPECT_FALSE(parseSuiteCheckpoint(text, CsvManifest{}, sc));

            std::vector<std::string> obj = json;
            obj[i] = value;
            serve::Request req;
            std::string error;
            EXPECT_FALSE(serve::parseRequest(whatifOf(obj), req, error));
            EXPECT_FALSE(error.empty());
        }
    }
}

// --- table4/table5 cache invalidation --------------------------------------

namespace
{

std::vector<WorkloadProfile>
cacheSuite()
{
    return {profileByName("gzip"), profileByName("twolf")};
}

std::vector<CoreConfig>
cacheConfigs(const std::vector<WorkloadProfile> &suite)
{
    std::vector<CoreConfig> configs;
    for (const auto &p : suite) {
        CoreConfig cfg = CoreConfig::initial();
        cfg.name = p.name;
        configs.push_back(cfg);
    }
    configs[1].l2Cycles += 4; // distinct arch for the second workload
    return configs;
}

} // namespace

TEST(ExperimentCache, Table4RoundTripsAndInvalidates)
{
    const auto suite = cacheSuite();
    const auto configs = cacheConfigs(suite);
    storeTable4Cache(suite, configs);

    std::vector<CoreConfig> loaded;
    ASSERT_TRUE(loadTable4Cache(suite, loaded));
    ASSERT_EQ(loaded.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        EXPECT_TRUE(loaded[i].sameArch(configs[i]));
        EXPECT_EQ(loaded[i].name, configs[i].name);
    }

    // A different suite (profile fingerprints change) must invalidate.
    auto other_suite = suite;
    other_suite[0].workingSetBytes *= 2;
    EXPECT_FALSE(loadTable4Cache(other_suite, loaded));

    // Torn file must invalidate.
    const std::string full = slurp(table4CachePath());
    atomicWriteFile(table4CachePath(),
                    full.substr(0, full.size() / 2));
    EXPECT_FALSE(loadTable4Cache(suite, loaded));

    // Garbage must invalidate, not crash.
    atomicWriteFile(table4CachePath(), "\x7f garbage");
    EXPECT_FALSE(loadTable4Cache(suite, loaded));

    // So must a body that does not decode under an intact manifest
    // and row count: a cell that is not one whole number, a renamed
    // column, a configuration that does not fit its clock.
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"gzip,0.33,3,128,", "gzip,0.33,3,5x2,"},
             {",rob,", ",rab,"},
             {"gzip,0.33,3,", "gzip,0.33,9,"},
             // Geometry the cache model cannot build: a set count that
             // is no power of two (yet fits its clock), a zero line,
             // zero ways, zero sets.
             {"gzip,0.33,3,128,64,64,1,2,256,",
              "gzip,0.33,3,128,64,64,1,2,192,"},
             {"gzip,0.33,3,128,64,64,1,2,256,2,32,",
              "gzip,0.33,3,128,64,64,1,2,256,2,0,"},
             {"gzip,0.33,3,128,64,64,1,2,256,2,",
              "gzip,0.33,3,128,64,64,1,2,256,0,"},
             {"gzip,0.33,3,128,64,64,1,2,256,",
              "gzip,0.33,3,128,64,64,1,2,0,"}}) {
        atomicWriteFile(table4CachePath(), mutate(full, from, to));
        EXPECT_FALSE(loadTable4Cache(suite, loaded)) << from << " -> " << to;
    }
    atomicWriteFile(table4CachePath(), full);
    EXPECT_TRUE(loadTable4Cache(suite, loaded));
}

TEST(ExperimentCache, Table5InvalidatesWhenConfigsChange)
{
    const auto suite = cacheSuite();
    const auto configs = cacheConfigs(suite);
    const PerfMatrix matrix(
        {suite[0].name, suite[1].name},
        {{1.0, 0.5}, {0.25, 2.0}});
    storeTable5Cache(suite, configs, matrix);

    PerfMatrix loaded;
    ASSERT_TRUE(loadTable5Cache(suite, configs, loaded));
    EXPECT_EQ(loaded.ipt(0, 1), 0.5);

    // Any configuration change (fingerprint) must invalidate: a new
    // Table 4 implies the whole matrix is stale.
    auto other_configs = configs;
    other_configs[0].iqSize *= 2;
    EXPECT_FALSE(loadTable5Cache(suite, other_configs, loaded));

    // So must a profile change at fixed configs.
    auto other_suite = suite;
    other_suite[1].fracLoad += 0.01;
    EXPECT_FALSE(loadTable5Cache(other_suite, configs, loaded));

    // So must a body that does not decode under an intact manifest
    // and row count: a renamed row, a cell that is not one number.
    const std::string full = slurp(table5CachePath());
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"\ntwolf,", "\ntwalf,"}, {",0.500000", ",0.5x"}}) {
        atomicWriteFile(table5CachePath(), mutate(full, from, to));
        EXPECT_FALSE(loadTable5Cache(suite, configs, loaded))
            << from << " -> " << to;
    }
}

// --- PerfMatrix partial-file resume ----------------------------------------

namespace
{

std::vector<WorkloadProfile>
matrixSuite()
{
    return {profileByName("gzip"), profileByName("mcf")};
}

constexpr uint64_t kMatrixInstrs = 5000;

PerfMatrix
goldenMatrix()
{
    static const PerfMatrix m = PerfMatrix::build(
        matrixSuite(), cacheConfigs(matrixSuite()), kMatrixInstrs, 2);
    return m;
}

std::string
partialHeader(const std::vector<WorkloadProfile> &suite,
              const std::vector<CoreConfig> &configs)
{
    const CsvManifest identity =
        PerfMatrix::partialIdentity(suite, configs, kMatrixInstrs);
    std::ostringstream out;
    out << "xps-matrix-partial v1\n";
    for (const auto &[key, value] : identity.entries)
        out << "m " << key << '=' << value << '\n';
    out << "endm\n";
    return out.str();
}

std::string
partialHeader()
{
    return partialHeader(matrixSuite(), cacheConfigs(matrixSuite()));
}

/** The partial-file cases run on both executor backends: threads
 *  (one task per cell) and forked workers (one task per row). */
class PerfMatrixPartial : public testing::TestWithParam<bool>
{
  protected:
    static PerfMatrix
    buildWith(const std::vector<WorkloadProfile> &suite,
              const std::vector<CoreConfig> &configs, int threads,
              const std::string &partialPath)
    {
        SupervisorOptions opts = SupervisorOptions::onThreads(threads);
        if (GetParam())
            opts.backend = SupervisorOptions::Backend::Processes;
        Supervisor supervisor(opts);
        return PerfMatrix::build(suite, configs, kMatrixInstrs,
                                 supervisor, partialPath);
    }

    static PerfMatrix
    buildWith(int threads, const std::string &partialPath)
    {
        return buildWith(matrixSuite(), cacheConfigs(matrixSuite()),
                         threads, partialPath);
    }
};

} // namespace

TEST_P(PerfMatrixPartial, BuildWithPartialPathMatchesPlainBuild)
{
    const PerfMatrix golden = goldenMatrix();
    const std::string path = tmpFile("matrix0.partial");
    const PerfMatrix built = buildWith(2, path);
    for (size_t w = 0; w < golden.size(); ++w) {
        for (size_t c = 0; c < golden.size(); ++c)
            EXPECT_EQ(built.ipt(w, c), golden.ipt(w, c));
    }
    // Completed build removes its partial file.
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_P(PerfMatrixPartial, ResumesRecoveredCellsVerbatim)
{
    // Poison one cell in a hand-crafted partial file: if the build
    // really resumes per cell, the poisoned value must flow into the
    // result untouched (cells are never recomputed once recovered).
    const std::string path = tmpFile("matrix1.partial");
    atomicWriteFile(path, partialHeader() + "cell 0 1 " +
                              formatHexDouble(999.0) + "\n");
    const PerfMatrix built = buildWith(1, path);
    EXPECT_EQ(built.ipt(0, 1), 999.0);
    // Untouched cells match the golden build bit-identically.
    const PerfMatrix golden = goldenMatrix();
    EXPECT_EQ(built.ipt(0, 0), golden.ipt(0, 0));
    EXPECT_EQ(built.ipt(1, 0), golden.ipt(1, 0));
    EXPECT_EQ(built.ipt(1, 1), golden.ipt(1, 1));
}

TEST_P(PerfMatrixPartial, TornTailLineIsDroppedNotMisparsed)
{
    const std::string path = tmpFile("matrix2.partial");
    atomicWriteFile(path, partialHeader() + "cell 1 1 " +
                              formatHexDouble(999.0) + "\ncell 0 1 0x1.8p");
    const PerfMatrix built = buildWith(1, path);
    const PerfMatrix golden = goldenMatrix();
    EXPECT_EQ(built.ipt(1, 1), 999.0);        // intact line kept
    EXPECT_EQ(built.ipt(0, 1), golden.ipt(0, 1)); // torn line redone
}

TEST_P(PerfMatrixPartial, ForeignManifestIsDiscarded)
{
    // A poisoned partial from a *different* budget must be thrown
    // away wholesale: the result matches the plain build.
    const std::string path = tmpFile("matrix3.partial");
    std::string header = partialHeader();
    const size_t at = header.find("m instrs=");
    ASSERT_NE(at, std::string::npos);
    header.insert(at, "m alien=1\n");
    atomicWriteFile(path, header + "cell 0 1 " +
                              formatHexDouble(999.0) + "\n");
    const PerfMatrix built = buildWith(1, path);
    const PerfMatrix golden = goldenMatrix();
    for (size_t w = 0; w < golden.size(); ++w) {
        for (size_t c = 0; c < golden.size(); ++c)
            EXPECT_EQ(built.ipt(w, c), golden.ipt(w, c));
    }
}

TEST_P(PerfMatrixPartial, GarbagePartialIsDiscarded)
{
    const std::string path = tmpFile("matrix4.partial");
    atomicWriteFile(path, "complete nonsense\n\x01\x02\x03");
    const PerfMatrix built = buildWith(1, path);
    const PerfMatrix golden = goldenMatrix();
    EXPECT_EQ(built.ipt(0, 0), golden.ipt(0, 0));
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_P(PerfMatrixPartial, RepeatedArchitecturesSimulateOncePerRow)
{
    // Columns 0 and 2 share an architecture: each row simulates it
    // once and copies the value, and every cell still equals its own
    // evaluation.
    const std::vector<WorkloadProfile> suite = {
        profileByName("gzip"), profileByName("mcf"),
        profileByName("twolf")};
    const std::vector<CoreConfig> configs = cacheConfigs(suite);
    ASSERT_TRUE(configs[2].sameArch(configs[0]));
    ASSERT_FALSE(configs[1].sameArch(configs[0]));
    Counter &computed =
        Metrics::global().counter("perf_matrix.cells_computed");
    const uint64_t before = computed.get();
    const PerfMatrix built = buildWith(suite, configs, 2, "");
    EXPECT_EQ(computed.get() - before, 3u * 2u); // rows x distinct
    for (size_t w = 0; w < suite.size(); ++w) {
        for (size_t c = 0; c < suite.size(); ++c)
            EXPECT_EQ(built.ipt(w, c),
                      Explorer::evaluate(suite[w], configs[c],
                                         kMatrixInstrs))
                << "cell (" << w << ", " << c << ")";
    }

    // A partial file that holds only a duplicate column's cell fills
    // that row's whole group: one cell fewer to simulate, same matrix.
    const std::string path = tmpFile("matrix5.partial");
    atomicWriteFile(path, partialHeader(suite, configs) + "cell 1 2 " +
                              formatHexDouble(built.ipt(1, 2)) + "\n");
    const uint64_t mid = computed.get();
    const PerfMatrix resumed = buildWith(suite, configs, 1, path);
    EXPECT_EQ(computed.get() - mid, 3u * 2u - 1u);
    for (size_t w = 0; w < suite.size(); ++w) {
        for (size_t c = 0; c < suite.size(); ++c)
            EXPECT_EQ(resumed.ipt(w, c), built.ipt(w, c));
    }
    EXPECT_FALSE(std::filesystem::exists(path));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PerfMatrixPartial, testing::Bool(),
    [](const testing::TestParamInfo<bool> &info) {
        return std::string(info.param ? "Processes" : "Threads");
    });

// --- differential: streaming vs traced simulation --------------------------

namespace
{

/** Deterministically randomized variant of a base profile: jitter
 *  every continuous knob within its legal neighbourhood. */
WorkloadProfile
randomizedProfile(uint64_t seed)
{
    const auto &bases = spec2000int();
    Rng rng(seed);
    WorkloadProfile p = bases[rng.below(bases.size())];
    p.name = "rand" + std::to_string(seed);
    p.seed = seed;
    auto jitter = [&rng](double v, double lo, double hi) {
        const double f = 0.8 + 0.4 * rng.uniform();
        return std::min(hi, std::max(lo, v * f));
    };
    p.fracLoad = jitter(p.fracLoad, 0.05, 0.35);
    p.fracStore = jitter(p.fracStore, 0.02, 0.20);
    p.fracCondBranch = jitter(p.fracCondBranch, 0.02, 0.20);
    p.meanDepDistance = jitter(p.meanDepDistance, 1.5, 16.0);
    p.fracTwoSrc = jitter(p.fracTwoSrc, 0.1, 0.6);
    p.loadChaseProb = jitter(p.loadChaseProb, 0.0, 0.5);
    p.biasedTakenProb = jitter(p.biasedTakenProb, 0.7, 0.99);
    p.meanLoopTrip = jitter(p.meanLoopTrip, 2.0, 64.0);
    p.heapZipfS = jitter(p.heapZipfS, 0.2, 1.2);
    p.fracHot = jitter(p.fracHot, 0.05, 0.6);
    p.fracStream = jitter(p.fracStream, 0.05, 0.6);
    p.workingSetBytes = std::max<uint64_t>(
        1ULL << 14, p.workingSetBytes >> rng.below(3));
    p.validate();
    return p;
}

class StreamingVsTraced : public testing::TestWithParam<uint64_t>
{
};

} // namespace

TEST_P(StreamingVsTraced, BitIdenticalStats)
{
    const WorkloadProfile profile = randomizedProfile(GetParam());
    const CoreConfig cfg = CoreConfig::initial();
    SimOptions streaming;
    streaming.measureInstrs = 6000;
    streaming.warmupInstrs = 4000;
    const SimStats a = simulate(profile, cfg, streaming);

    SimOptions traced = streaming;
    traced.trace =
        sharedTrace(profile, traced.streamId, traced.traceOps());
    const SimStats b = simulate(profile, cfg, traced);

    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.clockNs, b.clockNs);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.robOccupancySum, b.robOccupancySum);
    EXPECT_EQ(a.ipt(), b.ipt());
}

INSTANTIATE_TEST_SUITE_P(RandomProfiles, StreamingVsTraced,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                         34u, 55u, 89u));

// --- checkpoint corruption at the explorer layer is covered in
// --- checkpoint_test.cc; here we double-check the parser never
// --- crashes on fuzzed mutations of a valid file.

TEST(CheckpointFuzz, MutatedCheckpointNeverCrashes)
{
    CsvManifest identity;
    identity.set("k", std::string("v"));
    WorkloadCheckpoint ckpt;
    ckpt.round = 1;
    ckpt.anneal.current = CoreConfig::initial();
    ckpt.anneal.result.best = CoreConfig::initial();
    ckpt.memo = {{"0.33|3|128|64|64|1|2|128|2|32|4|1024|4|128|12", 1.5}};
    const std::string text =
        serializeWorkloadCheckpoint(ckpt, identity);

    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        std::string mutated = text;
        const size_t pos = rng.below(mutated.size());
        switch (rng.below(3)) {
        case 0:
            mutated[pos] =
                static_cast<char>(rng.below(256)); // flip a byte
            break;
        case 1:
            mutated = mutated.substr(0, pos); // truncate
            break;
        default:
            mutated.insert(pos, "junk"); // inject
            break;
        }
        WorkloadCheckpoint out;
        // Must return (true only if the mutation was benign), never
        // crash or hang.
        parseWorkloadCheckpoint(mutated, identity, out);
    }
}
