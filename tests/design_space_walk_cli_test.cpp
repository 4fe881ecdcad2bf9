/**
 * @file
 * Bad-usage contract of the design_space_walk example: an unknown
 * flag or app, a malformed number or an unknown policy must exit 2
 * with a usage line, never abort. None of these cases starts a walk.
 */

#include <gtest/gtest.h>

#include <string>

#include "CliRun.hpp"

namespace pico
{
namespace
{

test::CliResult
runWalk(const std::string &args)
{
    return test::runExample("design_space_walk", args);
}

void
expectBadUsage(const std::string &args)
{
    test::CliResult r = runWalk(args);
    EXPECT_EQ(r.exitCode, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage: design_space_walk"),
              std::string::npos)
        << args << "\n" << r.output;
}

TEST(DesignSpaceWalkCli, HelpExits0)
{
    test::CliResult r = runWalk("--help");
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
