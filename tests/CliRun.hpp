/**
 * @file
 * Runs an example binary the way a shell user would, for the CLI
 * contract tests. The example binaries live in the directory named
 * by the EXAMPLES_DIR compile definition.
 */

#ifndef PICO_TESTS_CLI_RUN_HPP
#define PICO_TESTS_CLI_RUN_HPP

#include <cstdio>
#include <string>

#include <sys/wait.h>

namespace pico::test
{

struct CliResult
{
    int exitCode = -1; ///< -1 on abnormal exit (signal, abort)
    std::string output; ///< stdout and stderr, interleaved
};

/** Run `<example> <args>` with stderr folded into the output. */
inline CliResult
runExample(const std::string &name, const std::string &args)
{
    std::string cmd =
        std::string(EXAMPLES_DIR) + "/" + name + " " + args + " 2>&1";
    CliResult result;
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

} // namespace pico::test

#endif // PICO_TESTS_CLI_RUN_HPP
