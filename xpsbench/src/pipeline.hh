/**
 * @file
 * The paper_pipeline workload: the paper's whole evaluation in one
 * process, no daemon — measureSuite (Fig. 1), Explorer::exploreAll
 * over the 11 profiles (Table 4), PerfMatrix::build (Table 5), then
 * the §5 analyses (bestCombination, greedySurrogates, subsetting).
 * Each repetition is a fresh process, as a user runs it, so the
 * trace cache starts cold every time and peak RSS is the pipeline's.
 */

#ifndef XPSBENCH_PIPELINE_HH
#define XPSBENCH_PIPELINE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xpsbench
{

/** Pinned budget and thread count of the pipeline. */
constexpr uint64_t kCharInstrs = 20000;
constexpr uint64_t kPipeEvalInstrs = 4000;
constexpr uint64_t kPipeSaIters = 36;
constexpr int kPipeRounds = 3;
constexpr uint64_t kPipeFinalInstrs = 8000;
constexpr int kPipeThreads = 2;
/** Explorer seeds per run. One seed's annealing walks set how much
 *  simulation a pipeline does (about a fifth apart from seed to seed)
 *  and the largest simulated caches it holds at once (peak RSS up to a
 *  quarter apart); a run covers many, so its figures do not hang on a
 *  few walks. */
constexpr int kPipeSeeds = 16;
/** Annealing iterations between checkpoint writes: on, as in the
 *  cached experiment pipeline (comm/experiments.cc). */
constexpr uint64_t kPipeCheckpointEvery = 16;

/** What one pipeline process reports. */
struct PipelineRep
{
    uint64_t seed = 0;      ///< explorer seed
    double setupS = 0.0;    ///< fork -> first layer call
    double pipelineS = 0.0; ///< first layer call -> analyses done
    double charS = 0.0;
    double exploreS = 0.0;
    double matrixS = 0.0;
    double analysesS = 0.0;
    double peakRssMb = 0.0;
    double cpuS = 0.0; ///< user + system time of the whole process
    std::string digest;
    uint64_t checks = 0;
    uint64_t checkFailures = 0;
    std::string errors;
    std::map<std::string, double> counters;
    std::map<std::string, double> timers;
    std::map<std::string, double> p50Ns;
    std::string tracePath; ///< merged trace (traced reps only)
};

/** Entry point of the child process (`--pipeline-child`): run the
 *  pipeline with its checkpoints under `dir` (or, with `probe`, only
 *  up to the first layer call) and write one JSON line to
 *  `resultFd`. Returns the exit code. */
int pipelineChild(uint64_t seed, const std::string &dir, int resultFd,
                  bool probe);

/** Spawn one pipeline process in `dir`; `traced` arms
 *  XPS_TRACE_JSON for it. */
PipelineRep spawnPipeline(uint64_t seed, const std::string &dir, int index,
                          bool traced, bool probe);

} // namespace xpsbench

#endif // XPSBENCH_PIPELINE_HH
