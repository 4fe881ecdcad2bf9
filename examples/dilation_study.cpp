/**
 * @file
 * Dilation study: for one application and one target machine, show
 * the three ways of obtaining target-machine cache misses —
 * simulating the target's own trace ("actual"), simulating the
 * reference trace dilated by the text dilation ("dilated"), and the
 * paper's dilation model ("estimated", no extra simulation at all).
 *
 * Usage: dilation_study [app] [machine]
 *   app      one of the suite names (default 085.gcc)
 *   machine  a "6332"-style FU mix (default 3221)
 * Bad usage (a flag, an unknown app or machine, a third argument)
 * prints the usage line and exits 2; --help prints it and exits 0.
 */

#include <iostream>

#include "cache/CacheSim.hpp"
#include "core/DilationModel.hpp"
#include "core/TraceModel.hpp"
#include "linker/LinkedBinary.hpp"
#include "support/Flags.hpp"
#include "support/Logging.hpp"
#include "support/Table.hpp"
#include "trace/TraceGenerator.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

using namespace pico;

namespace
{

constexpr uint64_t kBlocks = 40000;

uint64_t
simulate(const ir::Program &prog,
         const workloads::MachineBuild &build, trace::TraceKind kind,
         const cache::CacheConfig &cfg, double dilation = 1.0)
{
    cache::CacheSim sim(cfg);
    trace::TraceGenerator gen(prog, build.sched, build.bin);
    gen.generateDilated(kind, dilation,
                        [&sim](const trace::Access &a) {
                            sim.access(a.addr, a.isWrite);
                        },
                        kBlocks);
    return sim.misses();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app_name = "085.gcc";
    std::string machine_name = "3221";
    support::Flags flags("dilation_study",
                         "usage: dilation_study [app] [machine]");
    flags.positional("app", &app_name);
    flags.positional("machine", &machine_name);
    flags.parse(argc, argv);
    workloads::AppSpec spec;
    machine::MachineDesc target_machine;
    try {
        spec = workloads::specByName(app_name);
        target_machine = machine::MachineDesc::fromName(machine_name);
    } catch (const FatalError &e) {
        flags.fail(e.what());
    }

    auto prog = workloads::buildAndProfile(spec);
    auto ref = workloads::buildFor(
        prog, machine::MachineDesc::fromName("1111"));
    auto target = workloads::buildFor(prog, target_machine);
    double d = linker::textDilation(target.bin, ref.bin);

    std::cout << app_name << " on " << machine_name
              << ": text dilation " << TextTable::num(d, 3) << " ("
              << target.bin.textSize() << " / " << ref.bin.textSize()
              << " bytes)\n\n";

    // Fit the AHH parameters from the reference traces.
    trace::TraceGenerator ref_gen(prog, ref.sched, ref.bin);
    core::ItraceModeler imod;
    ref_gen.generate(trace::TraceKind::Instruction,
                     [&imod](const trace::Access &a) {
                         imod.access(a);
                     },
                     kBlocks);
    core::UtraceModeler umod(100000);
    ref_gen.generate(trace::TraceKind::Unified,
                     [&umod](const trace::Access &a) {
                         umod.access(a);
                     },
                     kBlocks);
    core::DilationModel model(imod.params(), umod.instrParams(),
                              umod.dataParams());

    core::MissOracle oracle = [&](const cache::CacheConfig &cfg) {
        return static_cast<double>(simulate(
            prog, ref, trace::TraceKind::Instruction, cfg));
    };

    TextTable table("actual vs dilated vs estimated misses");
    table.setHeader(
        {"cache", "actual", "dilated", "estimated", "est/act"});
    struct Row
    {
        const char *label;
        cache::CacheConfig cfg;
        trace::TraceKind kind;
    };
    Row rows[] = {
        {"I$ 1KB/1way/32B", cache::CacheConfig::fromSize(1024, 1, 32),
         trace::TraceKind::Instruction},
        {"I$ 16KB/2way/32B",
         cache::CacheConfig::fromSize(16384, 2, 32),
         trace::TraceKind::Instruction},
        {"U$ 16KB/2way/64B",
         cache::CacheConfig::fromSize(16384, 2, 64),
         trace::TraceKind::Unified},
        {"U$ 128KB/4way/64B",
         cache::CacheConfig::fromSize(131072, 4, 64),
         trace::TraceKind::Unified},
    };
    for (const auto &row : rows) {
        auto actual = static_cast<double>(
            simulate(prog, target, row.kind, row.cfg));
        auto dilated = static_cast<double>(
            simulate(prog, ref, row.kind, row.cfg, d));
        double est;
        if (row.kind == trace::TraceKind::Instruction) {
            est = model.estimateIcacheMisses(row.cfg, d, oracle);
        } else {
            auto ref_misses = static_cast<double>(
                simulate(prog, ref, row.kind, row.cfg));
            est = model.estimateUcacheMisses(row.cfg, d, ref_misses);
        }
        table.addRow({row.label, TextTable::num(actual, 0),
                      TextTable::num(dilated, 0),
                      TextTable::num(est, 0),
                      TextTable::num(actual > 0 ? est / actual : 0.0,
                                     2)});
    }
    table.print(std::cout);

    std::cout << "\nThe estimate used only reference-trace "
                 "simulations; no trace was ever generated for "
              << machine_name << ".\n";
    return 0;
}
