/**
 * @file
 * The walk workloads (walk-lru, walk-policy) and the pieces the
 * serve-mix workload shares with them: result digests, the CacheSim
 * oracle spot-check, the dilation-model error, and the layer-timed
 * walk that the traced runs use.
 */

#ifndef WALKBENCH_WALK_HPP
#define WALKBENCH_WALK_HPP

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "dse/Spacewalker.hpp"
#include "ir/Program.hpp"

namespace walkbench
{

/** The paper's processor space: every FU mix from narrow to wide. */
extern const std::vector<std::string> processorSpace;

/**
 * Mean absolute relative error (%) of the dilation model's miss
 * estimates against direct simulation of each non-reference
 * machine's own trace, on the paper's four evaluation caches (1 KB
 * and 16 KB I$, 16 KB and 128 KB U$). The reference is a more
 * detailed model (the machine's own compiled trace through
 * CacheSim), not hardware. Computed on the suite programs of `apps`
 * (their own seeds, so the figure is fixed for a given code
 * version), each walked over the processor space with `opts`.
 */
double suiteMissErrPct(const std::vector<std::string> &apps,
                       const pico::dse::Spacewalker::Options &opts);

/** Time spent in each layer by one layer-timed walk (seconds unless
 *  noted). Probes run outside the walk interval. */
struct LayerTimes
{
    double walk = 0;        ///< walk interval, probes excluded
    double build = 0;       ///< workloads: programForClass + buildFor
    uint64_t builds = 0;
    double gen = 0;         ///< trace: TraceGenerator::generate
    uint64_t refs = 0;
    double encode = 0;      ///< trace: ColumnarTraceBuffer::append
    uint64_t encodedBytes = 0;
    uint64_t encodedRefs = 0;
    double decode = 0;      ///< probe: one decodeBlock pass per buffer
    double model = 0;       ///< core: Itrace/UtraceModeler::access
    double sweep = 0;       ///< cache: SimBank::simulate, wall
    double sweepCpu = 0;    ///< cache: SimBank::simulate, process CPU
    double simAccesses = 0; ///< sum of accesses x simRuns()
    double dilation = 0;    ///< probe: evaluator misses() at dilation
    double paretoIncl = 0;  ///< dse: MemoryWalker::pareto, inclusive
    uint64_t paretoKept = 0;
    uint64_t paretoOffered = 0;

    /** Walk time not covered by a layer's self time. */
    double unattributed() const;
};

/**
 * Walk one program as Spacewalker::explore does (base trace class,
 * one reference machine), but through each layer's public calls made
 * one at a time from here, timing each. Phase 3 runs the machines in
 * order on this thread; calls that take a pool get the walk's pool.
 * `consistent` is cleared when the layer-built simulation banks
 * disagree with the evaluators the Pareto calls read.
 */
pico::dse::ExplorationResult
layeredWalk(const pico::ir::Program &prog,
            const pico::dse::MemorySpaces &spaces,
            const std::vector<std::string> &machines,
            const pico::dse::Spacewalker::Options &opts, LayerTimes &lt,
            std::unique_ptr<pico::dse::MemoryWalker> &mem_out,
            bool &consistent);

/**
 * What the program's own spans (support::TimedSpan) report for one
 * Spacewalker::explore(): the figures layeredWalk's copy of the walk
 * is checked against.
 */
struct SpanTimes
{
    double sweep = 0;  ///< sweep.* spans: wall per evaluate.* span, summed
    double pareto = 0; ///< memory.pareto, as layeredWalk shares phase 3
    /** Decode passes per encoded block: sweep spans (one per pass
     *  over a buffer) over the evaluate.* spans (one per buffer). */
    double decodesPerBlock = 0;
};

/** Run one explore() with the program's spans recorded. */
SpanTimes spannedExplore(const pico::ir::Program &prog,
                         const pico::dse::MemorySpaces &spaces,
                         const std::vector<std::string> &machines,
                         const pico::dse::Spacewalker::Options &opts);

/** Largest |dse.trace_overhead_pct| a traced run accepts. */
inline constexpr double maxTraceOverheadPct = 20.0;
/** Largest |dse.span_sweep_gap_pct| and |dse.span_pareto_gap_pct|. */
inline constexpr double maxSpanGapPct = 35.0;

/**
 * Check that the layer-timed walks still time what explore() does.
 * `layered`, `plain` (untraced explore() wall times) and `spans` are
 * walks of the same programs, index by index. Sets
 * dse.trace_overhead_pct, dse.span_sweep_gap_pct,
 * dse.span_pareto_gap_pct and trace.decodes_per_block; returns "" when
 * each stays within its limit, else what drifted.
 */
std::string checkAttribution(MetricSet &m,
                             const std::vector<LayerTimes> &layered,
                             const std::vector<double> &plain,
                             const std::vector<SpanTimes> &spans);

/** Add the layer metrics of a set of per-walk layer times. */
void addLayerMetrics(MetricSet &m, const std::vector<LayerTimes> &walks,
                     unsigned jobs);

/** Run walk-lru or walk-policy; returns the process exit code. */
int runWalk(const RunArgs &args);

} // namespace walkbench

#endif // WALKBENCH_WALK_HPP
