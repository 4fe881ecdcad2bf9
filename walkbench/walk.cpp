#include "walk.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <thread>

#include "cache/CacheSim.hpp"
#include "compiler/Scheduler.hpp"
#include "serve.hpp"
#include "support/Random.hpp"
#include "support/TraceContext.hpp"
#include "support/TraceEvents.hpp"
#include "trace/TraceGenerator.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace walkbench
{

using namespace pico;

const std::vector<std::string> processorSpace = {
    "1111", "2111", "2211", "3221", "4221", "4332", "6332"};

namespace
{

/** One walk workload: its apps and the walk they get. */
struct WalkWorkload
{
    std::vector<std::string> apps;
    dse::MemorySpaces spaces;
    dse::Spacewalker::Options opts;
    /** Programs walked per app, seeds derived from --seed. */
    unsigned programsPerApp = 3;
};

WalkWorkload
walkWorkload(const std::string &name)
{
    WalkWorkload w;
    w.opts.traceBlocks = 40000;
    w.opts.jobs = hardwareJobs();
    w.opts.verify = 0;
    if (name == "walk-lru") {
        // Classic LRU/write-back spaces; 085.gcc's large text makes
        // the I-side dilation work grow.
        w.apps = {"rasta", "085.gcc"};
    } else if (name == "walk-policy") {
        using cache::ReplacementPolicy;
        using cache::WritePolicy;
        w.apps = {"matmul-tile8"};
        for (auto *space : {&w.spaces.dcache, &w.spaces.ucache}) {
            space->replacements = {ReplacementPolicy::LRU,
                                   ReplacementPolicy::FIFO,
                                   ReplacementPolicy::Random};
            space->writePolicies = {WritePolicy::WriteBack,
                                    WritePolicy::WriteThrough};
        }
        w.opts.stalls.writeCost = 2.0;
        w.programsPerApp = 4;
    } else {
        throw std::runtime_error("unknown walk workload '" + name + "'");
    }
    return w;
}

// The paper's four evaluation caches (bench_fig7).
cache::CacheConfig
evalCache(uint32_t size, uint32_t assoc, uint32_t line)
{
    cache::CacheConfig c;
    c.lineBytes = line;
    c.assoc = assoc;
    c.sets = size / (assoc * line);
    return c;
}

/** Digest of one walk: its Pareto systems, per-machine dilation and
 *  cycles, and every configuration's reference miss count and write
 *  traffic. */
std::string
walkDigest(const dse::ExplorationResult &result,
           const dse::MemoryWalker &mem, const dse::MemorySpaces &spaces)
{
    Digest d;
    for (const auto &p : result.systems.points()) {
        d.add(p.id);
        d.add(p.cost);
        d.add(p.time);
    }
    for (const auto &[name, dil] : result.dilations) {
        d.add(name);
        d.add(dil);
        d.add(result.processorCycles.at(name));
    }
    d.add(result.evaluatedDesigns);
    for (const auto &cfg : spaces.icache.enumerate())
        d.add(mem.icache().misses(cfg, 1.0));
    for (const auto &cfg : spaces.dcache.enumerate()) {
        d.add(mem.dcache().misses(cfg));
        d.add(mem.dcache().writeTraffic(cfg));
    }
    for (const auto &cfg : spaces.ucache.enumerate()) {
        d.add(mem.ucache().misses(cfg, 1.0));
        d.add(mem.ucache().writeTraffic(cfg));
    }
    return d.hex();
}

/**
 * Replay a sample of configurations per cache type through the
 * cache::CacheSim oracle on the walk's captured reference traces and
 * compare with the walker's simulated counts. Returns "" when all
 * agree, else a description of the first mismatch.
 */
std::string
oracleSpotCheck(const dse::MemoryWalker &mem,
                const dse::MemorySpaces &spaces, uint64_t seed,
                unsigned per_space)
{
    pico::Rng rng = pico::Rng::forStream(seed, 0x0c5e);
    const dse::CacheSpace *space_of[3] = {&spaces.icache, &spaces.dcache,
                                          &spaces.ucache};
    const trace::ColumnarTraceBuffer *trace_of[3] = {
        &mem.icache().capturedTrace(), &mem.dcache().capturedTrace(),
        &mem.ucache().capturedTrace()};
    const char *tag[3] = {"I$", "D$", "U$"};
    for (int k = 0; k < 3; ++k) {
        auto configs = space_of[k]->enumerate();
        for (unsigned s = 0; s < per_space; ++s) {
            const auto &cfg = configs[rng.below(configs.size())];
            cache::CacheSim sim(cfg);
            trace_of[k]->replay([&sim](const trace::Access &a) {
                sim.access(a.addr, a.isWrite);
            });
            double walker = k == 0   ? mem.icache().misses(cfg, 1.0)
                            : k == 1 ? mem.dcache().misses(cfg)
                                     : mem.ucache().misses(cfg, 1.0);
            if (walker != static_cast<double>(sim.misses()))
                return std::string(tag[k]) + cfg.name() + " misses " +
                       std::to_string(walker) + " vs oracle " +
                       std::to_string(sim.misses());
            if (k > 0 && space_of[k]->extendedAxes()) {
                double traffic = k == 1 ? mem.dcache().writeTraffic(cfg)
                                        : mem.ucache().writeTraffic(cfg);
                if (traffic != static_cast<double>(sim.writeTraffic()))
                    return std::string(tag[k]) + cfg.name() +
                           " write traffic " + std::to_string(traffic) +
                           " vs oracle " +
                           std::to_string(sim.writeTraffic());
            }
        }
    }
    return "";
}

/** missErrPct over one walked program (see suiteMissErrPct). */
double
missErrPct(const ir::Program &prog, const dse::ExplorationResult &result,
           const dse::MemoryWalker &mem, uint64_t trace_blocks)
{
    const cache::CacheConfig icfg[2] = {evalCache(1024, 1, 32),
                                        evalCache(16384, 2, 32)};
    const cache::CacheConfig ucfg[2] = {evalCache(16384, 2, 64),
                                        evalCache(131072, 4, 64)};
    double err = 0.0;
    unsigned n = 0;
    for (const auto &[name, dil] : result.dilations) {
        if (name == "1111")
            continue;
        auto mdes = machine::MachineDesc::fromName(name);
        auto own = workloads::programForClass(prog, mdes, trace_blocks);
        auto build = workloads::buildFor(own, mdes);
        trace::TraceGenerator gen(own, build.sched, build.bin);
        cache::CacheSim i0(icfg[0]), i1(icfg[1]), u0(ucfg[0]), u1(ucfg[1]);
        gen.generate(
            trace::TraceKind::Instruction,
            [&](const trace::Access &a) {
                i0.access(a.addr, a.isWrite);
                i1.access(a.addr, a.isWrite);
            },
            trace_blocks);
        gen.generate(
            trace::TraceKind::Unified,
            [&](const trace::Access &a) {
                u0.access(a.addr, a.isWrite);
                u1.access(a.addr, a.isWrite);
            },
            trace_blocks);
        const std::pair<double, double> pairs[4] = {
            {mem.icache().misses(icfg[0], dil), double(i0.misses())},
            {mem.icache().misses(icfg[1], dil), double(i1.misses())},
            {mem.ucache().misses(ucfg[0], dil), double(u0.misses())},
            {mem.ucache().misses(ucfg[1], dil), double(u1.misses())}};
        for (const auto &[est, act] : pairs) {
            err += std::fabs(est - act) / std::max(act, 1.0);
            ++n;
        }
    }
    return n == 0 ? 0.0 : 100.0 * err / n;
}

} // namespace

double
suiteMissErrPct(const std::vector<std::string> &apps,
                const dse::Spacewalker::Options &opts)
{
    // The four evaluation caches are LRU/write-back, whose misses the
    // classic spaces give exactly, whatever policy axes the timed
    // walks add.
    double err = 0.0;
    for (const auto &app : apps) {
        auto prog = workloads::buildAndProfile(workloads::specByName(app));
        dse::Spacewalker walker(dse::MemorySpaces(), processorSpace, opts);
        auto ref = walker.explore(prog);
        err += missErrPct(prog, ref, walker.memoryWalker(),
                          opts.traceBlocks);
    }
    return err / static_cast<double>(apps.size());
}

double
LayerTimes::unattributed() const
{
    // Pareto's self time is its inclusive time less the dilation-
    // model calls it makes (timed separately as core.dilation_s), so
    // the self times sum to build+gen+encode+model+sweep+pareto.
    return walk - (build + gen + encode + model + sweep + paretoIncl);
}

dse::ExplorationResult
layeredWalk(const ir::Program &prog, const dse::MemorySpaces &spaces,
            const std::vector<std::string> &machines,
            const dse::Spacewalker::Options &opts, LayerTimes &lt,
            std::unique_ptr<dse::MemoryWalker> &mem_out, bool &consistent)
{
    using machine::MachineDesc;
    support::ThreadPool pool(
        support::ThreadPool::resolveJobs(opts.jobs) - 1);
    const uint64_t blocks = opts.traceBlocks;
    double excluded = 0.0;
    const double t_walk = nowS();

    // Phase 2: the reference machine's build, traces and sweeps.
    auto ref_mdes = MachineDesc::fromName(opts.referenceMachine);
    double t = nowS();
    injectDelay("workloads.build");
    ir::Program cls = workloads::programForClass(prog, ref_mdes, blocks);
    auto ref_build = workloads::buildFor(cls, ref_mdes);
    lt.build += nowS() - t;
    lt.builds += 1;

    trace::TraceGenerator gen(cls, ref_build.sched, ref_build.bin);
    const trace::TraceKind kinds[3] = {trace::TraceKind::Instruction,
                                       trace::TraceKind::Data,
                                       trace::TraceKind::Unified};
    std::vector<trace::Access> streams[3];
    t = nowS();
    injectDelay("trace.gen");
    for (int k = 0; k < 3; ++k) {
        lt.refs += gen.generate(
            kinds[k],
            [&streams, k](const trace::Access &a) {
                streams[k].push_back(a);
            },
            blocks);
    }
    lt.gen += nowS() - t;

    trace::ColumnarTraceBuffer buffers[3];
    t = nowS();
    injectDelay("trace.encode");
    for (int k = 0; k < 3; ++k) {
        for (const auto &a : streams[k])
            buffers[k].append(a);
    }
    lt.encode += nowS() - t;
    for (const auto &b : buffers) {
        lt.encodedBytes += b.encodedBytes();
        lt.encodedRefs += b.size();
    }

    // Probe, outside the walk interval: one decode pass per buffer
    // (the sweeps below decode trace.decodes_per_block times this).
    double x = nowS();
    uint64_t decoded = 0, captured = 0;
    for (const auto &b : buffers) {
        trace::BlockScratch scratch;
        for (size_t i = 0; i < b.blockCount(); ++i)
            decoded += b.decodeBlock(i, scratch).count;
        captured += b.size();
    }
    lt.decode += nowS() - x;
    excluded += nowS() - x;
    consistent &= decoded == captured;

    t = nowS();
    injectDelay("core.model");
    core::ItraceModeler imodel(opts.iGranule);
    for (const auto &a : streams[0])
        imodel.access(a);
    core::UtraceModeler umodel(opts.uGranule);
    for (const auto &a : streams[2])
        umodel.access(a);
    lt.model += nowS() - t;

    const dse::CacheSpace *space_of[3] = {&spaces.icache, &spaces.dcache,
                                          &spaces.ucache};
    std::unique_ptr<dse::SimBank> banks[3];
    t = nowS();
    double c = cpuS();
    injectDelay("cache.sweep");
    for (int k = 0; k < 3; ++k) {
        banks[k] = std::make_unique<dse::SimBank>(*space_of[k]);
        banks[k]->simulate(buffers[k], &pool);
    }
    lt.sweepCpu += cpuS() - c;
    lt.sweep += nowS() - t;
    for (int k = 0; k < 3; ++k)
        lt.simAccesses += static_cast<double>(buffers[k].size()) *
                          static_cast<double>(banks[k]->simRuns());

    // Outside the walk interval: the evaluators that the Pareto calls
    // read keep their banks private, so they are filled once more by
    // MemoryWalker::evaluate from the same streams. The layer-built
    // banks must agree with them on every configuration.
    x = nowS();
    auto mem = std::make_unique<dse::MemoryWalker>(
        spaces, opts.stalls, opts.iGranule, opts.uGranule);
    mem->setThreadPool(&pool);
    auto replay = [&streams](int k) {
        return dse::TraceSource([&streams, k](const dse::TraceSink &sink) {
            for (const auto &a : streams[k])
                sink(a);
        });
    };
    mem->evaluate(replay(0), replay(1), replay(2));
    for (const auto &cfg : spaces.icache.enumerate())
        consistent &= banks[0]->misses(cfg) == mem->icache().misses(cfg, 1.0);
    for (const auto &cfg : spaces.dcache.enumerate())
        consistent &= banks[1]->misses(cfg) == mem->dcache().misses(cfg);
    for (const auto &cfg : spaces.ucache.enumerate())
        consistent &= banks[2]->misses(cfg) == mem->ucache().misses(cfg, 1.0);
    consistent &= imodel.params().u1 == mem->icache().params().u1 &&
                  umodel.instrParams().u1 == mem->ucache().instrParams().u1;
    excluded += nowS() - x;

    // Phase 3: every machine on the pool, as explore() runs them. The
    // tasks overlap, so a layer's share of the phase's wall time is
    // its share of the tasks' summed time.
    struct Outcome
    {
        double dilation = 0;
        uint64_t cycles = 0;
        dse::DesignPoint proc;
        std::vector<dse::DesignPoint> systems;
        double build = 0, pareto = 0, total = 0;
        uint64_t kept = 0, offered = 0;
    };
    std::vector<Outcome> outs(machines.size());
    const auto &ports_axis = spaces.dcache.portCounts;
    const double t3 = nowS();
    support::parallelFor(machines.size(), &pool, [&](size_t i) {
        auto &o = outs[i];
        const double t_task = nowS();
        auto mdes = MachineDesc::fromName(machines[i]);
        if (mdes.predRegs > 0)
            throw std::runtime_error("layeredWalk covers the base trace "
                                     "class only: " + machines[i]);
        double tb = nowS();
        injectDelay("workloads.build");
        auto build = workloads::buildFor(cls, mdes);
        o.dilation = linker::textDilation(build.bin, ref_build.bin);
        std::vector<double> port_cycles;
        for (uint32_t ports : ports_axis)
            port_cycles.push_back(static_cast<double>(
                compiler::Scheduler::processorCycles(cls, build.sched,
                                                     ports)));
        o.build = nowS() - tb;
        o.cycles = build.processorCycles;
        o.proc = {"P" + machines[i], mdes.cost(),
                  static_cast<double>(build.processorCycles)};
        for (size_t pi = 0; pi < ports_axis.size(); ++pi) {
            double tp = nowS();
            injectDelay("dse.pareto");
            dse::ParetoSet hier = mem->pareto(o.dilation, ports_axis[pi]);
            o.pareto += nowS() - tp;
            o.kept += hier.size();
            o.offered += hier.offered();
            for (const auto &h : hier.points())
                o.systems.push_back({o.proc.id + "+" + h.id,
                                     o.proc.cost + h.cost,
                                     port_cycles[pi] + h.time});
        }
        o.total = nowS() - t_task;
    });
    const double w3 = nowS() - t3;
    double summed = 0;
    for (const auto &o : outs)
        summed += o.total;
    const double share = summed > 0 ? w3 / summed : 0.0;

    // Phase 4: merge in machine order, as explore() does.
    dse::ExplorationResult result;
    for (size_t i = 0; i < machines.size(); ++i) {
        const auto &o = outs[i];
        lt.build += share * o.build;
        lt.builds += 1;
        lt.paretoIncl += share * o.pareto;
        lt.paretoKept += o.kept;
        lt.paretoOffered += o.offered;
        result.dilations[machines[i]] = o.dilation;
        result.processorCycles[machines[i]] = o.cycles;
        result.processors.insertPoint(o.proc);
        for (const auto &sys : o.systems)
            result.systems.insertPoint(sys);
        ++result.evaluatedDesigns;
    }

    // Probe, outside the walk interval: the per-configuration stall
    // estimates MemoryWalker::pareto computes, on the same pool in
    // the same shape, at every machine's dilation.
    x = nowS();
    const auto &stalls = opts.stalls;
    const auto icfgs = spaces.icache.enumerate();
    const auto ucfgs = spaces.ucache.enumerate();
    std::vector<double> stall(icfgs.size() + ucfgs.size() +
                              spaces.dcache.enumerate().size());
    for (const auto &o : outs) {
        const double dil = o.dilation;
        for (uint32_t ports : ports_axis) {
            std::vector<cache::CacheConfig> dcfgs;
            for (const auto &cfg : spaces.dcache.enumerate())
                if (ports == 0 || cfg.ports == ports)
                    dcfgs.push_back(cfg);
            support::parallelFor(icfgs.size(), &pool, [&](size_t i) {
                stall[i] = mem->icache().misses(icfgs[i], dil) *
                           stalls.l2HitLatency;
            });
            support::parallelFor(dcfgs.size(), &pool, [&](size_t i) {
                double v = mem->dcache().misses(dcfgs[i]) *
                           stalls.l2HitLatency;
                if (stalls.writeCost != 0.0)
                    v += mem->dcache().writeTraffic(dcfgs[i]) *
                         stalls.writeCost;
                stall[icfgs.size() + i] = v;
            });
            support::parallelFor(ucfgs.size(), &pool, [&](size_t i) {
                double v = mem->ucache().misses(ucfgs[i], dil) *
                           stalls.memoryLatency;
                if (stalls.writeCost != 0.0)
                    v += mem->ucache().writeTraffic(ucfgs[i]) *
                         stalls.writeCost;
                stall[icfgs.size() + dcfgs.size() + i] = v;
            });
        }
    }
    lt.dilation += nowS() - x;
    excluded += nowS() - x;

    lt.walk += nowS() - t_walk - excluded;
    mem->setThreadPool(nullptr);
    mem_out = std::move(mem);
    return result;
}

SpanTimes
spannedExplore(const ir::Program &prog, const dse::MemorySpaces &spaces,
               const std::vector<std::string> &machines,
               const dse::Spacewalker::Options &opts)
{
    auto &rec = support::TraceRecorder::instance();
    rec.clear();
    support::setTraceEnabled(true);
    const uint64_t rid = support::newRequestId();
    {
        support::TraceContextScope scope(support::TraceContext{rid, 0});
        dse::Spacewalker walker(spaces, machines, opts);
        walker.explore(prog);
    }
    support::setTraceEnabled(false);
    const auto events = rec.requestEvents(rid);
    rec.clear();

    using Event = support::TraceRecorder::RequestEvent;
    auto starts = [](const Event &ev, const char *prefix) {
        return ev.phase == 'X' && ev.name.rfind(prefix, 0) == 0;
    };
    auto end = [](const Event &ev) { return ev.tsNs + ev.durNs; };
    SpanTimes st;
    double passes = 0, buffers = 0, pareto = 0, tasks = 0, phase3 = 0;
    for (const auto &ev : events) {
        const double dur = static_cast<double>(ev.durNs) * 1e-9;
        if (starts(ev, "sweep."))
            passes += 1;
        else if (starts(ev, "memory.pareto"))
            pareto += dur;
        else if (starts(ev, "design:"))
            tasks += dur;
        else if (starts(ev, "walk.phase3."))
            phase3 += dur;
        if (!starts(ev, "evaluate."))
            continue;
        // The evaluator's sweeps: from the first sweep span that
        // starts inside it to the last one's end.
        buffers += 1;
        uint64_t first = UINT64_MAX, last = 0;
        for (const auto &sw : events) {
            if (starts(sw, "sweep.") && sw.tsNs >= ev.tsNs &&
                end(sw) <= end(ev)) {
                first = std::min(first, sw.tsNs);
                last = std::max(last, end(sw));
            }
        }
        if (last > first)
            st.sweep += static_cast<double>(last - first) * 1e-9;
    }
    // Phase-3 tasks overlap; as in layeredWalk, Pareto gets the share
    // of the phase's wall time its spans have of the tasks' time.
    st.pareto = tasks > 0 ? pareto * phase3 / tasks : 0.0;
    st.decodesPerBlock = buffers > 0 ? passes / buffers : 0.0;
    return st;
}

std::string
checkAttribution(MetricSet &m, const std::vector<LayerTimes> &layered,
                 const std::vector<double> &plain,
                 const std::vector<SpanTimes> &spans)
{
    auto med = [](const auto &walks, auto field) {
        std::vector<double> v;
        for (const auto &w : walks)
            v.push_back(field(w));
        return median(v);
    };
    auto gapPct = [](double mine, double theirs) {
        return 100.0 * (mine - theirs) / std::max(theirs, 1e-9);
    };
    const double overhead =
        gapPct(med(layered, [](auto &w) { return w.walk; }), median(plain));
    const double sweep_gap =
        gapPct(med(layered, [](auto &w) { return w.sweep; }),
               med(spans, [](auto &s) { return s.sweep; }));
    const double pareto_gap =
        gapPct(med(layered, [](auto &w) { return w.paretoIncl; }),
               med(spans, [](auto &s) { return s.pareto; }));
    m.set("dse.trace_overhead_pct", overhead, "%");
    m.set("dse.span_sweep_gap_pct", sweep_gap, "%");
    m.set("dse.span_pareto_gap_pct", pareto_gap, "%");
    m.set("trace.decodes_per_block",
          med(spans, [](auto &s) { return s.decodesPerBlock; }), "count");
    std::ostringstream why;
    if (std::fabs(overhead) > maxTraceOverheadPct)
        why << "traced walk differs from explore() by " << overhead << "% ";
    if (std::fabs(sweep_gap) > maxSpanGapPct)
        why << "layered sweep differs from the sweep spans by " << sweep_gap
            << "% ";
    if (std::fabs(pareto_gap) > maxSpanGapPct)
        why << "layered Pareto differs from the memory.pareto spans by "
            << pareto_gap << "% ";
    return why.str();
}

void
addLayerMetrics(MetricSet &m, const std::vector<LayerTimes> &walks,
                unsigned jobs)
{
    auto med = [&walks](auto field) {
        std::vector<double> v;
        for (const auto &w : walks)
            v.push_back(field(w));
        return median(v);
    };
    m.set("workloads.build_s", med([](auto &w) { return w.build; }), "s");
    m.set("workloads.builds",
          med([](auto &w) { return double(w.builds); }), "count");
    m.set("trace.gen_s", med([](auto &w) { return w.gen; }), "s");
    m.set("trace.refs", med([](auto &w) { return double(w.refs); }),
          "count");
    m.set("trace.encode_s", med([](auto &w) { return w.encode; }), "s");
    m.set("trace.bytes_per_ref", med([](auto &w) {
              return double(w.encodedBytes) /
                     std::max<double>(double(w.encodedRefs), 1.0);
          }),
          "B");
    m.set("trace.decode_s", med([](auto &w) { return w.decode; }), "s");
    m.set("cache.sweep_s", med([](auto &w) { return w.sweep; }), "s");
    m.set("cache.sweep_cpu_s", med([](auto &w) { return w.sweepCpu; }),
          "s");
    m.set("cache.ns_per_sim_access", med([](auto &w) {
              return 1e9 * w.sweepCpu / std::max(w.simAccesses, 1.0);
          }),
          "ns");
    m.set("cache.pool_util", med([jobs](auto &w) {
              return w.sweepCpu / std::max(w.sweep * jobs, 1e-9);
          }),
          "ratio");
    m.set("core.model_s", med([](auto &w) { return w.model; }), "s");
    m.set("core.dilation_s", med([](auto &w) { return w.dilation; }),
          "s");
    m.set("dse.pareto_s",
          med([](auto &w) { return w.paretoIncl - w.dilation; }), "s");
    m.set("dse.pareto_keep_ratio", med([](auto &w) {
              return double(w.paretoKept) /
                     std::max<double>(double(w.paretoOffered), 1.0);
          }),
          "ratio");
    m.set("dse.unattributed_s",
          med([](auto &w) { return w.unattributed(); }), "s");
    m.set("dse.walk_traced_s", med([](auto &w) { return w.walk; }), "s");
}

int
runWalk(const RunArgs &args)
{
    WalkWorkload w = walkWorkload(args.workload);
    const auto &machines = processorSpace;
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    auto fail = [&](const std::string &why) {
        ++failed;
        if (problems.size() < 8)
            problems.push_back(why);
    };

    // setup_s: buildAndProfile of the suite apps (their own AppSpec
    // seeds, so the figure does not move with --seed), several rounds.
    std::vector<double> setup;
    for (int round = 0; round < 21; ++round) {
        double t = nowS();
        for (const auto &app : w.apps)
            workloads::buildAndProfile(workloads::specByName(app));
        setup.push_back(nowS() - t);
    }

    // Each app is walked as several programs whose AppSpec seeds
    // derive from --seed (the first is --seed itself): one program's
    // walk cost moves by up to a quarter from seed to seed, and the
    // average over several moves much less.
    struct Walked
    {
        std::string name;
        ir::Program prog;
        std::string refDigest;
    };
    std::vector<Walked> progs;
    for (const auto &app : w.apps) {
        for (unsigned j = 0; j < w.programsPerApp; ++j) {
            auto spec = workloads::specByName(app);
            spec.seed = args.seed + j * 1000003ULL;
            progs.push_back({app + "/s" + std::to_string(spec.seed),
                             workloads::buildAndProfile(spec), ""});
        }
    }
    const size_t nprogs = progs.size();

    // Reference: a serial (jobs 1) walk of each program, oracle-
    // checked, whose digest every timed walk must reproduce. The
    // programs' reference walks run side by side.
    std::vector<std::string> ref_problem(nprogs);
    {
        std::vector<std::thread> threads;
        for (size_t i = 0; i < nprogs; ++i) {
            threads.emplace_back([&, i]() {
                try {
                    auto opts = w.opts;
                    opts.jobs = 1;
                    dse::Spacewalker walker(w.spaces, machines, opts);
                    auto ref = walker.explore(progs[i].prog);
                    progs[i].refDigest =
                        walkDigest(ref, walker.memoryWalker(), w.spaces);
                    if (!ref.complete() ||
                        ref.evaluatedDesigns != machines.size())
                        ref_problem[i] = "reference walk incomplete";
                    else
                        ref_problem[i] =
                            oracleSpotCheck(walker.memoryWalker(), w.spaces,
                                            args.seed + i, 2);
                } catch (const std::exception &e) {
                    ref_problem[i] = e.what();
                }
            });
        }
        for (auto &t : threads)
            t.join();
    }
    Digest combined;
    for (size_t i = 0; i < nprogs; ++i) {
        ++attempted;
        if (!ref_problem[i].empty())
            fail(progs[i].name + ": reference: " + ref_problem[i]);
        combined.add(progs[i].refDigest);
    }
    if (!args.expectDigest.empty() && combined.hex() != args.expectDigest)
        fail("default-seed digest " + combined.hex() + " != recorded " +
             args.expectDigest);
    const double miss_err =
        args.traced ? 0.0 : suiteMissErrPct(w.apps, w.opts);

    auto timedExplore = [&](size_t i, double &wall, double &cpu) {
        dse::Spacewalker walker(w.spaces, machines, w.opts);
        double t = nowS(), c = cpuS();
        auto r = walker.explore(progs[i].prog);
        wall = nowS() - t;
        cpu = cpuS() - c;
        return std::make_pair(r, walkDigest(r, walker.memoryWalker(),
                                            w.spaces));
    };
    double wall = 0, cpu = 0;
    timedExplore(0, wall, cpu); // warm-up, untimed
    // peak_rss_mb covers the timed walks, not the set-up above.
    resetPeakRss();

    MetricSet m;
    std::ostringstream details;
    details << "{\"workload\": " << jstr(args.workload)
            << ", \"seed\": " << args.seed << ", \"jobs\": " << w.opts.jobs
            << ", \"programs\": " << nprogs
            << ", \"trace_blocks\": " << w.opts.traceBlocks
            << ", \"reference_digest\": " << jstr(combined.hex());

    const double t_loop = nowS();
    if (!args.traced) {
        std::vector<std::vector<double>> walls(nprogs), cpus(nprogs);
        std::vector<double> all_ms;
        bool corrupt = args.corrupt;
        size_t iterations = 0;
        while (nowS() - t_loop < args.seconds || iterations < 2) {
            for (size_t i = 0; i < nprogs; ++i) {
                auto [r, digest] = timedExplore(i, wall, cpu);
                ++attempted;
                if (corrupt) {
                    digest[0] = digest[0] == '0' ? '1' : '0';
                    corrupt = false;
                }
                if (!r.complete() || digest != progs[i].refDigest)
                    fail(progs[i].name + ": walk digest " + digest +
                         " != reference " + progs[i].refDigest);
                walls[i].push_back(wall);
                cpus[i].push_back(cpu);
                all_ms.push_back(wall * 1000.0);
            }
            ++iterations;
        }
        double loop = nowS() - t_loop;
        double p50 = 0, cpu50 = 0;
        for (size_t i = 0; i < nprogs; ++i) {
            p50 += median(walls[i]) / static_cast<double>(nprogs);
            cpu50 += median(cpus[i]) / static_cast<double>(nprogs);
        }
        Tail tail = tailOf(all_ms);
        m.set("walk_p50_s", p50, "s");
        m.set("walk_cpu_s", cpu50, "s");
        m.set("miss_err_pct", miss_err, "%");
        m.set("serve_p50_ms", median(all_ms), "ms");
        m.set("serve_tail_ms", tail.value, "ms");
        m.set("serve_rps", static_cast<double>(all_ms.size()) / loop, "1/s");
        m.set("peak_rss_mb", peakRssMb(), "MB");
        m.set("setup_s", median(setup), "s");
        details << ", \"program_walk_s\": {";
        for (size_t i = 0; i < nprogs; ++i)
            details << (i ? ", " : "") << jstr(progs[i].name) << ": "
                    << jnum(median(walls[i]));
        details << "}";
        details << ", \"iterations\": " << iterations
                << ", \"serve_tail_pct\": " << tail.pct
                << ", \"serve_tail_samples\": " << tail.samples
                << ", \"setup_rounds_s\": " << jlist(setup);
    } else {
        // Traced: layer-timed walks, each followed by an untraced
        // explore() of the same program, so the overhead compares like
        // with like, and by one with the program's spans recorded, so
        // the layer figures can be checked against the program's own.
        std::vector<LayerTimes> per_walk;
        std::vector<double> untraced;
        std::vector<SpanTimes> spans;
        while (nowS() - t_loop < args.seconds ||
               per_walk.size() < std::max<size_t>(nprogs, 2)) {
            for (size_t i = 0; i < nprogs; ++i) {
                LayerTimes lt;
                std::unique_ptr<dse::MemoryWalker> mem;
                bool consistent = true;
                auto r = layeredWalk(progs[i].prog, w.spaces, machines,
                                     w.opts, lt, mem, consistent);
                ++attempted;
                std::string digest = walkDigest(r, *mem, w.spaces);
                if (!consistent || digest != progs[i].refDigest)
                    fail(progs[i].name + ": layered walk digest " + digest +
                         " != reference " + progs[i].refDigest);
                per_walk.push_back(lt);
                auto pr = timedExplore(i, wall, cpu);
                ++attempted;
                if (pr.second != progs[i].refDigest)
                    fail(progs[i].name + ": walk digest mismatch");
                untraced.push_back(wall);
                spans.push_back(spannedExplore(progs[i].prog, w.spaces,
                                               machines, w.opts));
            }
        }
        addLayerMetrics(m, per_walk, w.opts.jobs);
        ++attempted;
        if (auto why = checkAttribution(m, per_walk, untraced, spans);
            !why.empty())
            fail("layer attribution: " + why);
        m.set("workloads.profile_s",
              median(setup) / static_cast<double>(w.apps.size()), "s");
        cacheProbes(m);
        ServePhase phase;
        phase.apps = w.apps;
        phase.seconds = 4.0;
        phase.seed = args.seed;
        phase.serverBin = args.serverBin;
        ServeOutcome out = runServePhase(phase);
        attempted += out.attempted;
        failed += out.failed;
        for (const auto &p : out.problems)
            if (problems.size() < 8)
                problems.push_back(p);
        addServerMetrics(m, out);
        details << ", \"walks\": " << per_walk.size()
                << ", \"untraced_walk_s\": " << jnum(median(untraced));
    }
    details << ", \"problems\": [";
    for (size_t i = 0; i < problems.size(); ++i)
        details << (i ? ", " : "") << jstr(problems[i]);
    details << "]}";
    printResult(details.str(), attempted, failed, m);
    return 0;
}

} // namespace walkbench
