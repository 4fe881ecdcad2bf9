/**
 * @file
 * Bad-usage contract of the design_space_walk example: an unknown
 * flag or app, a malformed number or an unknown policy must exit 2
 * with a usage line, never abort. None of these cases starts a walk.
 * The binary's path arrives via the DESIGN_SPACE_WALK_BIN compile
 * definition.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

namespace pico
{
namespace
{

struct RunResult
{
    int exitCode = -1; ///< -1 on abnormal exit (signal, abort)
    std::string output;
};

/** Run the walker with stderr folded into the captured output. */
RunResult
runWalk(const std::string &args)
{
    std::string cmd =
        std::string(DESIGN_SPACE_WALK_BIN) + " " + args + " 2>&1";
    RunResult result;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return result;
    char chunk[256];
    while (fgets(chunk, sizeof chunk, pipe) != nullptr)
        result.output += chunk;
    int status = pclose(pipe);
    if (status != -1 && WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    return result;
}

void
expectBadUsage(const std::string &args)
{
    RunResult r = runWalk(args);
    EXPECT_EQ(r.exitCode, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage: design_space_walk"),
              std::string::npos)
        << args << "\n" << r.output;
}

TEST(DesignSpaceWalkCli, HelpExits0)
{
    RunResult r = runWalk("--help");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_NE(r.output.find("usage: design_space_walk"),
              std::string::npos);
}

TEST(DesignSpaceWalkCli, UnknownFlagExits2)
{
    expectBadUsage("--bogus");
    expectBadUsage("rasta --bogus=1");
    expectBadUsage("rasta --jobs"); // flag without its value
}

TEST(DesignSpaceWalkCli, UnknownAppExits2)
{
    expectBadUsage("no-such-app");
    expectBadUsage("rasta unepic"); // one app per walk
}

TEST(DesignSpaceWalkCli, MalformedNumbersExit2)
{
    expectBadUsage("rasta --jobs abc");
    expectBadUsage("rasta --jobs -3");
    expectBadUsage("rasta --jobs=4x");
    expectBadUsage("rasta --jobs 99999999999999999999999");
    expectBadUsage("rasta --timeout-ms soon");
    expectBadUsage("rasta --write-cost -1");
    expectBadUsage("rasta --verify=yes");
}

TEST(DesignSpaceWalkCli, UnknownPolicyExits2)
{
    expectBadUsage("rasta --replacement lru,mru");
    expectBadUsage("rasta --write wa");
}

} // namespace
} // namespace pico
