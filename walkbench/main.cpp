/**
 * @file
 * walkbench: the repository benchmark program.
 *
 * Usage: walkbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --server-bin PATH [--expect-digest HEX]
 *                  [--corrupt] [--inject LAYER:MS]
 *
 * Workloads: walk-lru, walk-policy (in-process Spacewalker::explore)
 * and serve-mix (a picoeval_server child driven from this process).
 * The walks run at jobs = the machine's hardware threads.
 * Prints a details line, then the result line
 * {"correct", "attempted", "failed", "metrics"}. --corrupt and
 * --inject exist for walkbench/selftest.py only. Normally run through
 * walkbench/run.py, which builds this binary first.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"
#include "serve.hpp"
#include "walk.hpp"

using namespace walkbench;

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "walkbench: " << why
              << "\nusage: walkbench --workload walk-lru|walk-policy|"
                 "serve-mix --seed N --seconds S --trace 0|1 "
                 "--server-bin PATH [--expect-digest HEX] "
                 "[--corrupt] [--inject LAYER:MS]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::cerr << "walkbench: refusing to run: built without NDEBUG ("
              << WALKBENCH_BUILD_TYPE << "); configure with "
              << "-DCMAKE_BUILD_TYPE=Release\n";
    return 3;
#endif
    if (std::string(WALKBENCH_BUILD_TYPE) != "Release") {
        std::cerr << "walkbench: refusing to run a "
                  << WALKBENCH_BUILD_TYPE << " build; numbers are only "
                  << "reported from Release builds\n";
        return 3;
    }
    RunArgs args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--corrupt") {
            args.corrupt = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.traced = value == "1";
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
        } else if (flag == "--server-bin") {
            args.serverBin = value;
        } else if (flag == "--expect-digest") {
            args.expectDigest = value;
        } else if (flag == "--inject") {
            if (!setInjection(value))
                return usage("--inject takes LAYER:MS");
        } else {
            return usage("unknown flag " + flag);
        }
        if (end != nullptr && *end != '\0')
            return usage("bad value for " + flag + ": " + value);
    }
    if (args.seconds <= 0)
        return usage("--seconds must be positive");
    if (args.serverBin.empty())
        return usage("--server-bin is required");
    try {
        if (args.workload == "walk-lru" || args.workload == "walk-policy")
            return runWalk(args);
        if (args.workload == "serve-mix")
            return runServe(args);
        return usage("unknown workload '" + args.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "walkbench: " << e.what() << "\n";
        return 1;
    }
}
