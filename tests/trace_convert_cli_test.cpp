/**
 * @file
 * End-to-end exit-code contract of the trace_convert tool: scripts
 * depend on distinguishing bad usage (2) from corrupt input (3) from
 * I/O failure (4) from success (0).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "CliRun.hpp"
#include "trace/TraceFile.hpp"

namespace pico
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/** Run the tool, returning its exit code (-1 on abnormal exit). */
int
runTool(const std::string &args)
{
    return test::runExample("trace_convert", args).exitCode;
}

/** A small, valid v2 trace file. */
std::string
writeValidTrace(const std::string &name)
{
    std::string path = tempPath(name);
    trace::TraceFileWriter writer(path);
    for (uint64_t i = 0; i < 16; ++i) {
        trace::Access a;
        a.addr = 0x1000 + i * 4;
        a.isInstr = i % 2 == 0;
        a.isWrite = false;
        writer.write(a);
    }
    writer.close();
    return path;
}

TEST(TraceConvertCli, SucceedsOnValidInput)
{
    std::string in = writeValidTrace("tc_ok.trace");
    std::string out = tempPath("tc_ok.v3");
    EXPECT_EQ(runTool(in + " " + out + " --format v3"), 0);
    EXPECT_EQ(runTool(out + " " + tempPath("tc_ok_back.trace") +
                      " --format v2"),
              0);
}

TEST(TraceConvertCli, BadUsageExits2)
{
    EXPECT_EQ(runTool(""), 2);                     // no arguments
    EXPECT_EQ(runTool("only_input.trace"), 2);     // missing output
    std::string in = writeValidTrace("tc_usage.trace");
    EXPECT_EQ(runTool(in + " " + tempPath("x") + " --format v9"),
              2); // unknown format
}

TEST(TraceConvertCli, CorruptInputExits3)
{
    // Not a trace file at all.
    std::string garbage = tempPath("tc_garbage.trace");
    std::ofstream(garbage) << "this is not a trace\n";
    EXPECT_EQ(runTool(garbage + " " + tempPath("tc_g.out")), 3);

    // A real v2 file with a flipped record: checksum mismatch.
    std::string in = writeValidTrace("tc_corrupt.trace");
    {
        std::ifstream src(in);
        std::string contents((std::istreambuf_iterator<char>(src)),
                             std::istreambuf_iterator<char>());
        auto pos = contents.find("1000");
        ASSERT_NE(pos, std::string::npos);
        contents.replace(pos, 4, "2000");
        std::ofstream(in, std::ios::trunc) << contents;
    }
    EXPECT_EQ(runTool(in + " " + tempPath("tc_c.out")), 3);
}

TEST(TraceConvertCli, IoErrorExits4)
{
    // Input that does not exist.
    EXPECT_EQ(runTool(tempPath("does_not_exist.trace") + " " +
                      tempPath("tc_io.out")),
              4);
    // Output in a directory that does not exist.
    std::string in = writeValidTrace("tc_io_in.trace");
    EXPECT_EQ(runTool(in + " /no/such/dir/tc_io.out"), 4);
}

} // namespace
} // namespace pico
