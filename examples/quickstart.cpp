/**
 * @file
 * Quickstart: the whole pipeline in one page.
 *
 *   1. Generate a synthetic application (stand-in for a MediaBench
 *      program) and profile it.
 *   2. Compile, assemble and link it for a VLIW machine.
 *   3. Generate an address trace and simulate a cache on it.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * Takes no arguments: --help prints the usage line and exits 0, any
 * other argument exits 2.
 */

#include <iostream>

#include "cache/CacheSim.hpp"
#include "machine/MachineDesc.hpp"
#include "support/Flags.hpp"
#include "trace/TraceGenerator.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

int
main(int argc, char **argv)
{
    using namespace pico;

    support::Flags("quickstart", "usage: quickstart").parse(argc, argv);

    // 1. A synthetic application: the "epic" analogue from the
    //    benchmark suite. buildAndProfile generates the IR and runs
    //    the profiling pass that fills block/call counts.
    auto spec = workloads::specByName("epic");
    ir::Program program = workloads::buildAndProfile(spec);
    std::cout << "program '" << program.name << "': "
              << program.functions.size() << " functions, "
              << program.totalBlocks() << " blocks, "
              << program.totalOperations() << " operations\n";

    // 2. Compile for a 4-issue reference machine ("1111" = one
    //    integer, float, memory and branch unit).
    auto mdes = machine::MachineDesc::fromName("1111");
    workloads::MachineBuild build = workloads::buildFor(program, mdes);
    std::cout << "machine " << mdes.name() << ": text size "
              << build.bin.textSize() << " bytes, estimated "
              << build.processorCycles << " processor cycles\n";

    // 3. Trace-driven simulation of a 16KB 2-way instruction cache.
    auto config = cache::CacheConfig::fromSize(16384, 2, 32);
    cache::CacheSim cache(config);
    trace::TraceGenerator gen(program, build.sched, build.bin);
    uint64_t refs = gen.generate(
        trace::TraceKind::Instruction,
        [&cache](const trace::Access &a) { cache.access(a.addr); },
        /*maxBlocks=*/50000);

    std::cout << "I-cache " << config.name() << ": " << refs
              << " fetches, " << cache.misses() << " misses ("
              << cache.missRate() * 100.0 << "%)\n";
    return 0;
}
