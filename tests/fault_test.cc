/**
 * @file
 * Unit tests for the deterministic fault-injection framework
 * (util/fault.hh): the site catalogue, the XPS_FAULTS grammar
 * (including its death-on-typo contract), one-shot fire semantics
 * shared across forked processes, and the per-kind behaviors at
 * control and write sites.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "util/atomic_file.hh"
#include "util/fault.hh"

using namespace xps;

namespace
{

/** Disarm on scope exit, so one test's schedule never leaks into the
 *  next (the armed flag and shared page are process-global). */
struct Disarm
{
    ~Disarm() { fault::armSchedule(""); }
};

std::string
freshDir(const std::string &tag)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("xps_fault_" + tag + "_" +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

bool
catalogueHas(const char *name, bool write)
{
    for (const fault::Site &site : fault::sites()) {
        if (site.name == std::string(name))
            return site.write == write;
    }
    return false;
}

} // namespace

// --- catalogue -------------------------------------------------------------

TEST(FaultCatalogue, RegistersTheSupervisedPipelineSites)
{
    EXPECT_TRUE(catalogueHas("worker.start", false));
    EXPECT_TRUE(catalogueHas("worker.result", true));
    EXPECT_TRUE(catalogueHas("checkpoint.write", true));
    EXPECT_TRUE(catalogueHas("cell.publish", true));
    EXPECT_TRUE(catalogueHas("sim.run", false));
    EXPECT_TRUE(catalogueHas("serve.accept", false));
    EXPECT_TRUE(catalogueHas("serve.journal", true));
    EXPECT_TRUE(catalogueHas("serve.publish", true));
    EXPECT_TRUE(catalogueHas("serve.respond", false));
    EXPECT_TRUE(catalogueHas("serve.trace", true));
    EXPECT_GE(fault::sites().size(), 10u);
}

// --- grammar ---------------------------------------------------------------

TEST(FaultGrammar, NormalizesTheActiveSchedule)
{
    Disarm guard;
    fault::armSchedule("sim.run:crash:3");
    EXPECT_EQ(fault::activeSchedule(), "sim.run:crash:3");
    fault::armSchedule(
        "checkpoint.write:shortwrite:1,sim.run:hang:2");
    EXPECT_EQ(fault::activeSchedule(),
              "checkpoint.write:shortwrite:1,sim.run:hang:2");
    fault::armSchedule("");
    EXPECT_EQ(fault::activeSchedule(), "");
}

TEST(FaultGrammar, DerivedNthIsDeterministicAndBounded)
{
    Disarm guard;
    fault::armSchedule("sim.run:crash:0:12345");
    const std::string first = fault::activeSchedule();
    fault::armSchedule("sim.run:crash:0:12345");
    EXPECT_EQ(fault::activeSchedule(), first); // same seed, same nth
    // The normalized schedule carries the concrete nth in [1, 8].
    const size_t colon = first.rfind(':');
    ASSERT_NE(colon, std::string::npos);
    const int nth = std::stoi(first.substr(colon + 1));
    EXPECT_GE(nth, 1);
    EXPECT_LE(nth, 8);
}

TEST(FaultGrammarDeathTest, RejectsUnknownSite)
{
    EXPECT_EXIT(fault::armSchedule("no.such.site:crash:1"),
                testing::ExitedWithCode(1), "unknown site");
}

TEST(FaultGrammarDeathTest, RejectsUnknownKind)
{
    EXPECT_EXIT(fault::armSchedule("sim.run:explode:1"),
                testing::ExitedWithCode(1), "unknown kind");
}

TEST(FaultGrammarDeathTest, RejectsBadVisitCount)
{
    EXPECT_EXIT(fault::armSchedule("sim.run:crash:soon"),
                testing::ExitedWithCode(1), "bad visit count");
}

TEST(FaultGrammarDeathTest, RejectsDerivedNthWithoutSeed)
{
    EXPECT_EXIT(fault::armSchedule("sim.run:crash:0"),
                testing::ExitedWithCode(1), "needs a seed");
}

// --- fire semantics --------------------------------------------------------

TEST(FaultFire, UnarmedPointsAreInert)
{
    fault::armSchedule("");
    EXPECT_EQ(fault::fire("sim.run"), fault::Kind::None);
    XPS_FAULT_POINT("sim.run"); // must be a no-op, not a crash
    EXPECT_EQ(fault::firedCount(), 0u);
}

TEST(FaultFire, CountsVisitsAndFiresOnNth)
{
    Disarm guard;
    fault::armSchedule("worker.result:enospc:3");
    // enospc at a write site is *returned*, so the nth semantics are
    // observable without dying.
    EXPECT_EQ(fault::fire("worker.result"), fault::Kind::None);
    EXPECT_EQ(fault::fire("worker.result"), fault::Kind::None);
    EXPECT_EQ(fault::fire("worker.result"), fault::Kind::Enospc);
    EXPECT_EQ(fault::hitCount("worker.result"), 3u);
    EXPECT_EQ(fault::firedCount(), 1u);
    // One-shot: the 3rd visit fired; later visits never re-trip.
    EXPECT_EQ(fault::fire("worker.result"), fault::Kind::None);
    EXPECT_EQ(fault::firedCount(), 1u);
}

TEST(FaultFire, CrashExitsWithTheInjectionCode)
{
    Disarm guard;
    fault::armSchedule("sim.run:crash:1");
    EXPECT_EXIT(XPS_FAULT_POINT("sim.run"),
                testing::ExitedWithCode(fault::kCrashExitCode),
                "firing crash at sim.run");
}

TEST(FaultFire, ShortWriteDegradesToCrashAtControlSites)
{
    Disarm guard;
    fault::armSchedule("worker.start:shortwrite:1");
    EXPECT_EXIT(XPS_FAULT_POINT("worker.start"),
                testing::ExitedWithCode(fault::kCrashExitCode),
                "firing crash at worker.start");
}

TEST(FaultFire, OneShotAcrossForkedProcesses)
{
    // The core cross-process guarantee: a fault fired in a child is
    // spent for the whole process tree, so a retried worker does not
    // re-trip its predecessor's fault.
    Disarm guard;
    fault::armSchedule("worker.start:crash:1");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        XPS_FAULT_POINT("worker.start"); // dies here
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), fault::kCrashExitCode);
    // The child's firing is visible here, through the shared page...
    EXPECT_EQ(fault::firedCount(), 1u);
    EXPECT_EQ(fault::hitCount("worker.start"), 1u);
    // ...and this process (the "retried worker") sails through.
    XPS_FAULT_POINT("worker.start");
    EXPECT_EQ(fault::hitCount("worker.start"), 2u);
    EXPECT_EQ(fault::firedCount(), 1u);
}

// --- realization through atomicWriteFile -----------------------------------

TEST(FaultWrite, ShortWriteTearsThePublishedFileThenDies)
{
    Disarm guard;
    const std::string dir = freshDir("shortwrite");
    const std::string path = dir + "/result.txt";
    const std::string content = "0123456789abcdef";
    fault::armSchedule("worker.result:shortwrite:1");
    EXPECT_EXIT(atomicWriteFile(path, content, "worker.result"),
                testing::ExitedWithCode(fault::kCrashExitCode),
                "firing shortwrite at worker.result");
    // The death-test child shares the filesystem: the file it left
    // behind must be the torn prefix, the exact failure mode readers
    // have to reject.
    std::string torn;
    ASSERT_TRUE(readFile(path, torn));
    EXPECT_EQ(torn, content.substr(0, content.size() / 2));
    std::filesystem::remove_all(dir);
}

TEST(FaultWrite, EnospcFailsTheWriteWithoutTouchingTheTarget)
{
    Disarm guard;
    const std::string dir = freshDir("enospc");
    const std::string path = dir + "/result.txt";
    fault::armSchedule("worker.result:enospc:1");
    EXPECT_EXIT(atomicWriteFile(path, "payload", "worker.result"),
                testing::ExitedWithCode(1), "No space left");
    EXPECT_FALSE(std::filesystem::exists(path));
    std::filesystem::remove_all(dir);
}

TEST(FaultWrite, UnarmedSiteTagIsFree)
{
    fault::armSchedule("");
    const std::string dir = freshDir("unarmed");
    const std::string path = dir + "/out.txt";
    atomicWriteFile(path, "clean", "worker.result");
    std::string in;
    ASSERT_TRUE(readFile(path, in));
    EXPECT_EQ(in, "clean");
    std::filesystem::remove_all(dir);
}
