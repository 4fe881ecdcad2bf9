/**
 * @file
 * The shared flag contract of every example binary: --help prints
 * the usage line and exits 0; an unknown flag or a bad value prints
 * the reason and the usage line and exits 2, never aborting. Server
 * and load-generator cases must exit before binding a socket or
 * starting a thread; the socket path they name must never appear.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <unistd.h>

#include "CliRun.hpp"

namespace pico
{
namespace
{

/** A socket path no case may create. */
std::string
unboundSocket()
{
    return testing::TempDir() + "examples_cli_never_bound.sock";
}

/** Argument lists that are bad values for an example, one run each. */
std::vector<std::string>
badValues(const std::string &example)
{
    const std::string s = "--socket " + unboundSocket() + " ";
    if (example == "design_space_walk")
        return {"--jobs abc", "--jobs 1025", "--write-cost=nan"};
    if (example == "dilation_study")
        return {"no-such-app", "085.gcc 12", "085.gcc 3221 extra"};
    if (example == "trace_convert")
        return {"in out --format v9", "only_input"};
    if (example == "picoeval_server")
        return {s + "--workers abc",       s + "--workers 0",
                s + "--workers 1025",      s + "--queue-capacity 0",
                s + "--queue-capacity 4",  s + "--drain-ms -1",
                "--workers 2"};
    if (example == "picoeval_loadgen")
        return {s + "--clients abc",    s + "--clients 0",
                s + "--clients 1025",   s + "--max-attempts 0",
                s + "--zipf -1",        s + "--apps ,",
                "--clients 2"};
    if (example == "picoeval_ctl")
        return {s + "ping --request-id abc", "--socket " + unboundSocket(),
                "ping", s + "ping stats"};
    // quickstart and custom_workload take no arguments.
    return {"extra"};
}

class ExamplesCli : public testing::TestWithParam<std::string>
{
  protected:
    void
    expectUsage(const std::string &args, int code)
    {
        const std::string &name = GetParam();
        test::CliResult r = test::runExample(name, args);
        EXPECT_EQ(r.exitCode, code) << name << " " << args << "\n"
                                    << r.output;
        EXPECT_NE(r.output.find("usage: " + name), std::string::npos)
            << name << " " << args << "\n" << r.output;
        EXPECT_NE(::access(unboundSocket().c_str(), F_OK), 0)
            << name << " " << args << " bound its socket";
    }
};

TEST_P(ExamplesCli, HelpExits0)
{
    expectUsage("--help", 0);
}

TEST_P(ExamplesCli, UnknownFlagExits2)
{
    expectUsage("--bogus", 2);
    expectUsage("--bogus=1", 2);
}

TEST_P(ExamplesCli, BadValueExits2)
{
    for (const auto &args : badValues(GetParam()))
        expectUsage(args, 2);
}

INSTANTIATE_TEST_SUITE_P(AllExamples, ExamplesCli,
                         testing::Values("quickstart", "custom_workload",
                                         "design_space_walk",
                                         "dilation_study",
                                         "trace_convert",
                                         "picoeval_server",
                                         "picoeval_loadgen",
                                         "picoeval_ctl"));

} // namespace
} // namespace pico
