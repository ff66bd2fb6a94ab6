/**
 * @file
 * Golden regressions, each compared bit-exactly against a committed
 * snapshot so that a change shows up as an explicit, reviewable diff:
 *
 *  - tests/golden/simstats_initial.csv: every calibrated benchmark
 *    profile simulated on the Table-3 initial configuration, every
 *    counter.
 *  - tests/golden/exploration_mini.csv: one small exploration (four
 *    workloads, three rounds, seed 10, which adopts both between
 *    rounds and in the final phase) under three walks — the default,
 *    XPS_BATCH=8 and XPS_REDUCE_WORKLOADS=2 — with each workload's
 *    configuration, best IPT as a hex-float, evaluations and
 *    adoptions. It pins the explorer's results across commits.
 *
 * Regenerate after an intentional model or explorer change with
 *
 *     XPS_REGEN_GOLDEN=1 ./tests/golden_snapshot_test
 *
 * from the build tree (the test rewrites the snapshots in the source
 * tree at the paths compiled in below), then commit the new CSVs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explore/checkpoint.hh"
#include "explore/explorer.hh"
#include "scoped_env.hh"
#include "sim/simulator.hh"
#include "util/csv.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "workload/profile.hh"

using namespace xps;

#ifndef XPS_GOLDEN_DIR
#define XPS_GOLDEN_DIR "tests/golden"
#endif

namespace
{

constexpr uint64_t kMeasure = 20000;
constexpr uint64_t kWarmup = 20000;

const char *
goldenPath()
{
    return XPS_GOLDEN_DIR "/simstats_initial.csv";
}

const char *
explorationGoldenPath()
{
    return XPS_GOLDEN_DIR "/exploration_mini.csv";
}

SimStats
runProfile(const WorkloadProfile &prof)
{
    SimOptions opts;
    opts.measureInstrs = kMeasure;
    opts.warmupInstrs = kWarmup;
    return simulate(prof, CoreConfig::initial(), opts);
}

std::vector<std::string>
statsRow(const std::string &name, const SimStats &s)
{
    auto u = [](uint64_t v) { return std::to_string(v); };
    return {name,           u(s.instructions), u(s.cycles),
            u(s.condBranches), u(s.mispredicts), u(s.loads),
            u(s.stores),    u(s.l1Hits),       u(s.l1Misses),
            u(s.l2Hits),    u(s.l2Misses),     u(s.robOccupancySum)};
}

const std::vector<std::string> &
goldenHeader()
{
    static const std::vector<std::string> header = {
        "workload", "instructions", "cycles",   "condBranches",
        "mispredicts", "loads",     "stores",   "l1Hits",
        "l1Misses", "l2Hits",       "l2Misses", "robOccupancySum"};
    return header;
}

/** Write `fresh` to `path` under XPS_REGEN_GOLDEN=1, else expect it
 *  to equal the committed snapshot cell for cell. */
void
regenerateOrCompare(const char *path, const CsvDoc &fresh)
{
    if (envInt("XPS_REGEN_GOLDEN", 0) != 0) {
        writeCsv(path, fresh);
        inform("golden snapshot regenerated at %s — review and "
               "commit the diff", path);
        return;
    }
    CsvDoc golden;
    ASSERT_TRUE(readCsv(path, golden))
        << "missing " << path << "; regenerate with XPS_REGEN_GOLDEN=1";
    ASSERT_EQ(golden.header, fresh.header);
    ASSERT_EQ(golden.rows.size(), fresh.rows.size());
    for (size_t i = 0; i < fresh.rows.size(); ++i) {
        for (size_t j = 0; j < fresh.header.size(); ++j) {
            EXPECT_EQ(golden.rows[i][j], fresh.rows[i][j])
                << "row " << i << " (" << fresh.rows[i][0] << ")."
                << fresh.header[j] << " drifted from " << path
                << "; if the change is intentional, regenerate with "
                   "XPS_REGEN_GOLDEN=1 and commit the diff";
        }
    }
}

} // namespace

TEST(GoldenSnapshot, AllBenchmarksMatchCommittedStats)
{
    CsvDoc fresh;
    fresh.header = goldenHeader();
    for (const WorkloadProfile &prof : spec2000int())
        fresh.rows.push_back(statsRow(prof.name, runProfile(prof)));

    regenerateOrCompare(goldenPath(), fresh);
}

TEST(GoldenSnapshot, MiniExplorationMatchesCommittedResults)
{
    const std::vector<WorkloadProfile> suite = {
        profileByName("gzip"), profileByName("mcf"),
        profileByName("twolf"), profileByName("crafty")};
    ExplorerOptions opts;
    opts.evalInstrs = 4000;
    opts.saIters = 36;
    opts.rounds = 3;
    opts.threads = 2;
    opts.seed = 10;
    opts.finalEvalInstrs = 8000;

    struct Walk
    {
        const char *name, *batch, *reduce;
    };
    CsvDoc fresh;
    fresh.header = {"walk", "workload"};
    for (const std::string &field : CoreConfig::csvHeader())
        fresh.header.push_back(field);
    for (const char *field : {"best_ipt", "evaluations", "adoptions"})
        fresh.header.push_back(field);
    for (const Walk &walk : {Walk{"default", "1", "0"},
                             Walk{"batch8", "8", "0"},
                             Walk{"reduce2", "1", "2"}}) {
        const test::ScopedEnv batch("XPS_BATCH", walk.batch);
        const test::ScopedEnv surrogate("XPS_SURROGATE", "0");
        const test::ScopedEnv reduce("XPS_REDUCE_WORKLOADS", walk.reduce);
        for (const WorkloadResult &r : Explorer(suite, opts).exploreAll()) {
            std::vector<std::string> row = {walk.name, r.workload};
            for (const std::string &cell : r.best.toCsvRow())
                row.push_back(cell);
            row.push_back(formatHexDouble(r.bestIpt));
            row.push_back(std::to_string(r.evaluations));
            row.push_back(std::to_string(r.adoptions));
            fresh.rows.push_back(std::move(row));
        }
    }
    regenerateOrCompare(explorationGoldenPath(), fresh);
}
