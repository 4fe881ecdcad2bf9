/**
 * @file
 * Cache-subsystem evaluators: single-pass simulation banks plus the
 * dilation-model estimators, one evaluator per cache type.
 *
 * Each evaluator consumes the *reference processor's* trace exactly
 * once (one Cheetah-style pass per distinct line size plus the trace
 * modeler), after which the misses of any configuration in the space
 * at any dilation are available without further simulation — the
 * paper's central efficiency claim.
 */

#ifndef PICO_DSE_EVALUATORS_HPP
#define PICO_DSE_EVALUATORS_HPP

#include <functional>
#include <memory>
#include <vector>

#include "cache/SetResidentSim.hpp"
#include "cache/SinglePassSim.hpp"
#include "core/DilationModel.hpp"
#include "core/TraceModel.hpp"
#include "dse/CacheSpace.hpp"
#include "dse/Pareto.hpp"
#include "support/CancelToken.hpp"
#include "support/ThreadPool.hpp"
#include "trace/ColumnarTrace.hpp"

namespace pico::dse
{

/**
 * A type-erased address-trace producer: invoked with a sink, it
 * streams every Access of the trace into it.
 */
using TraceSink = std::function<void(const trace::Access &)>;
using TraceSource = std::function<void(const TraceSink &)>;

/**
 * Bank of single-pass simulators, one Cheetah pass per line size.
 *
 * By default a bank simulates exactly the space's distinct line
 * sizes: that is all the data cache (dilation independent, equation
 * 4.1) and the unified cache (equation 4.15 scales each config's own
 * reference misses) ever read. The instruction cache also needs the
 * *contracted* line sizes L/d of Lemma 1 and the interpolation
 * endpoints of equation 4.12, so its evaluator builds the bank over
 * contractedLines() — every power of two from minCoveredLine up to
 * the space's largest line.
 *
 * Designs are routed by replacement policy: LRU (a stack algorithm)
 * reads misses from the Cheetah single-pass simulators; FIFO and
 * random (not stack algorithms) read them from DEW-style
 * set-resident simulators, one per (line size, policy) over the
 * space's enumerated line sizes. The set-resident bank — which also
 * carries dirty bits, so it reports write-back traffic — is built
 * only when the space's policy axes are extended; classic LRU/WB
 * spaces pay nothing and stay bit-identical.
 */
class SimBank
{
  public:
    /** Smallest line size simulated (one word). */
    static constexpr uint32_t minCoveredLine = 4;

    /** Simulates exactly space.distinctLineSizes(). */
    explicit SimBank(const CacheSpace &space);

    /**
     * Simulates the given Cheetah line sizes, which must include
     * every line size of the space. The set-resident bank of an
     * extended space still covers only the enumerated line sizes.
     */
    SimBank(const CacheSpace &space, std::vector<uint32_t> lines);

    /**
     * Every power-of-two line size from minCoveredLine up to the
     * space's largest line: the lines the dilation model contracts
     * an instruction cache to (Lemma 1, equation 4.12).
     */
    static std::vector<uint32_t> contractedLines(const CacheSpace &space);

    /**
     * Run every simulator over a columnar trace in one pass, a small
     * chunk of blocks at a time: each block is decoded once, then
     * every simulator consumes the chunk in block order (decodes and
     * simulators fan out on `pool`; a null or zero-worker pool runs
     * the same loop inline). Miss counts equal per-reference access()
     * calls whatever the pool. The cancel token is checked once per
     * chunk; cancellation unwinds with CancelledError and leaves the
     * bank unusable for misses() queries (the caller discards it).
     */
    void simulate(const trace::ColumnarTraceBuffer &buffer,
                  support::ThreadPool *pool,
                  const support::CancelToken *cancel = nullptr);

    /** Simulated reference-trace misses of a covered config. */
    double misses(const cache::CacheConfig &config) const;

    /**
     * Simulated memory writes of a covered config under its write
     * policy: dirty-line writebacks for write-back, the trace's
     * store count for write-through. In a non-extended space (no
     * set-resident bank) write traffic is not modeled and this
     * returns 0 — consistent with the classic read-only stall model.
     */
    double writeTraffic(const cache::CacheConfig &config) const;

    /** Store references in the simulated trace (extended only). */
    uint64_t stores() const;

    /** True when the configuration is covered. */
    bool covers(const cache::CacheConfig &config) const;

    /** True when a set-resident (policy) bank was built. */
    bool extended() const { return !policySims_.empty(); }

    /** Number of independent single-pass simulations (line sizes
     *  plus, in extended spaces, set-resident passes). */
    size_t simRuns() const { return sims_.size() + policySims_.size(); }

    uint64_t
    accesses() const
    {
        return sims_.empty() ? 0 : sims_.front().accesses();
    }

    /** Oracle adapter for the dilation model. */
    core::MissOracle oracle() const;

  private:
    std::vector<cache::SinglePassSim> sims_;
    /**
     * Set-resident simulators for the extended policy axes, one per
     * (enumerated line size, replacement policy) — including LRU,
     * whose *misses* still come from sims_ but whose write-back
     * traffic needs the dirty-bit model.
     */
    std::vector<cache::SetResidentSim> policySims_;
};

/**
 * Instruction-cache evaluator (simulation + dilation model). Its bank
 * covers SimBank::contractedLines(), so every dilation d >= 1 finds
 * its contracted line sizes simulated.
 */
class IcacheEvaluator
{
  public:
    explicit IcacheEvaluator(CacheSpace space,
                             uint64_t granule_refs =
                                 core::defaultIGranule);

    /**
     * One pass over the reference instruction trace; the bank's
     * simulators run concurrently on `pool` (null = serial; results
     * are identical either way). A cancel token aborts mid-capture or
     * mid-sweep with CancelledError; the evaluator then stays in the
     * not-evaluated state.
     */
    void evaluate(const TraceSource &ref_instr_trace,
                  support::ThreadPool *pool = nullptr,
                  const support::CancelToken *cancel = nullptr);

    /**
     * Misses of a configuration at a dilation; dilation 1 returns
     * the simulated count exactly. Non-LRU designs at dilation != 1
     * scale their simulated count by the dilation model's LRU-twin
     * ratio (the model itself is derived for stack algorithms).
     */
    double misses(const cache::CacheConfig &config,
                  double dilation) const;

    /** Simulated memory writes of a configuration (see SimBank). */
    double writeTraffic(const cache::CacheConfig &config) const;

    /** Pareto set over the space at one dilation; time is misses
     *  weighted by the L1-miss penalty plus write traffic weighted
     *  by the (default 0) write cost. */
    ParetoSet pareto(double dilation, double miss_penalty,
                     double write_cost = 0.0) const;

    const core::ComponentParams &params() const { return params_; }
    const CacheSpace &space() const { return space_; }
    const SimBank &bank() const { return *bank_; }
    bool evaluated() const { return evaluated_; }

    /** The captured (columnar-compressed) reference trace. */
    const trace::ColumnarTraceBuffer &
    capturedTrace() const
    {
        return trace_;
    }

  private:
    CacheSpace space_;
    uint64_t granuleRefs_;
    std::unique_ptr<SimBank> bank_;
    trace::ColumnarTraceBuffer trace_;
    core::ComponentParams params_;
    bool evaluated_ = false;
};

/**
 * Data-cache evaluator (simulation only; equation 4.1). Its bank
 * covers only the space's own line sizes.
 */
class DcacheEvaluator
{
  public:
    explicit DcacheEvaluator(CacheSpace space);

    /** One pass over the reference data trace. */
    void evaluate(const TraceSource &ref_data_trace,
                  support::ThreadPool *pool = nullptr,
                  const support::CancelToken *cancel = nullptr);

    /** Misses of a configuration (dilation independent). */
    double misses(const cache::CacheConfig &config) const;

    /** Simulated memory writes of a configuration (see SimBank). */
    double writeTraffic(const cache::CacheConfig &config) const;

    ParetoSet pareto(double miss_penalty,
                     double write_cost = 0.0) const;

    const CacheSpace &space() const { return space_; }
    const SimBank &bank() const { return *bank_; }
    bool evaluated() const { return evaluated_; }

    /** The captured (columnar-compressed) reference trace. */
    const trace::ColumnarTraceBuffer &
    capturedTrace() const
    {
        return trace_;
    }

  private:
    CacheSpace space_;
    std::unique_ptr<SimBank> bank_;
    trace::ColumnarTraceBuffer trace_;
    bool evaluated_ = false;
};

/**
 * Unified-cache evaluator (simulation + equations 4.13–4.15). Its bank
 * covers only the space's own line sizes: equation 4.15 scales each
 * config's reference misses by a ratio of *modeled* collisions, so
 * the contracted instruction line never reaches the simulator.
 */
class UcacheEvaluator
{
  public:
    explicit UcacheEvaluator(CacheSpace space,
                             uint64_t granule_refs =
                                 core::defaultUGranule);

    /** One pass over the reference unified trace. */
    void evaluate(const TraceSource &ref_unified_trace,
                  support::ThreadPool *pool = nullptr,
                  const support::CancelToken *cancel = nullptr);

    double misses(const cache::CacheConfig &config,
                  double dilation) const;

    /** Simulated memory writes of a configuration (see SimBank). */
    double writeTraffic(const cache::CacheConfig &config) const;

    ParetoSet pareto(double dilation, double miss_penalty,
                     double write_cost = 0.0) const;

    const core::ComponentParams &instrParams() const { return iParams_; }
    const core::ComponentParams &dataParams() const { return dParams_; }
    const CacheSpace &space() const { return space_; }
    const SimBank &bank() const { return *bank_; }
    bool evaluated() const { return evaluated_; }

    /** The captured (columnar-compressed) reference trace. */
    const trace::ColumnarTraceBuffer &
    capturedTrace() const
    {
        return trace_;
    }

  private:
    CacheSpace space_;
    uint64_t granuleRefs_;
    std::unique_ptr<SimBank> bank_;
    trace::ColumnarTraceBuffer trace_;
    core::ComponentParams iParams_;
    core::ComponentParams dParams_;
    bool evaluated_ = false;
};

} // namespace pico::dse

#endif // PICO_DSE_EVALUATORS_HPP
