#include "dse/Evaluators.hpp"

#include <algorithm>

#include "support/Logging.hpp"
#include "support/TraceEvents.hpp"

namespace pico::dse
{

namespace
{

// Blocks per sweep step: 8 default blocks are ~300 KB of decoded
// columns, which stay cache-resident while every simulator reads them.
constexpr size_t sweepChunkBlocks = 8;

void
feedBlock(cache::SinglePassSim &sim, const trace::BlockView &view)
{
    sim.accessBlock(view.addrs, view.count);
}

void
feedBlock(cache::SetResidentSim &sim, const trace::BlockView &view)
{
    sim.accessBlock(view.addrs, view.kinds, view.count);
}

/** Metric tag of one simulator: `line<N>` or `<policy>.line<N>`. */
std::string
sweepTag(const cache::SinglePassSim &sim)
{
    return "line" + std::to_string(sim.lineBytes());
}

std::string
sweepTag(const cache::SetResidentSim &sim)
{
    return std::string(cache::replacementName(sim.policy())) +
           ".line" + std::to_string(sim.lineBytes());
}

} // namespace

SimBank::SimBank(const CacheSpace &space)
    : SimBank(space, space.distinctLineSizes())
{}

SimBank::SimBank(const CacheSpace &space, std::vector<uint32_t> lines)
{
    auto space_lines = space.distinctLineSizes();
    fatalIf(space_lines.empty(), "cache space has no line sizes");
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    for (uint32_t line : space_lines) {
        fatalIf(!std::binary_search(lines.begin(), lines.end(), line),
                "simulation bank lines omit the space's line size ",
                line);
    }
    uint32_t min_sets = space.minSets();
    uint32_t max_sets = space.maxSets();
    uint32_t max_assoc = space.maxAssoc();

    for (uint32_t line : lines)
        sims_.emplace_back(line, min_sets, max_sets, max_assoc);

    // Extended policy axes add one set-resident pass per (enumerated
    // line size, policy). LRU is included when present so its
    // write-back traffic is modeled; its misses still come from the
    // Cheetah bank above. Classic spaces build nothing here.
    if (space.extendedAxes()) {
        std::vector<cache::ReplacementPolicy> policies;
        for (auto policy : space.replacements) {
            if (std::find(policies.begin(), policies.end(),
                          policy) == policies.end())
                policies.push_back(policy);
        }
        for (auto policy : policies) {
            for (uint32_t line : space_lines) {
                policySims_.emplace_back(line, min_sets, max_sets,
                                         max_assoc, policy);
            }
        }
    }
}

std::vector<uint32_t>
SimBank::contractedLines(const CacheSpace &space)
{
    auto space_lines = space.distinctLineSizes();
    fatalIf(space_lines.empty(), "cache space has no line sizes");
    std::vector<uint32_t> lines;
    for (uint32_t line = minCoveredLine; line <= space_lines.back();
         line *= 2)
        lines.push_back(line);
    return lines;
}

void
SimBank::simulate(const trace::ColumnarTraceBuffer &buffer,
                  support::ThreadPool *pool,
                  const support::CancelToken *cancel)
{
    support::TimedSpan span("sweep.fused", "sweep");
    const size_t blocks = buffer.blockCount();
    std::vector<trace::BlockScratch> scratch(
        std::min(blocks, sweepChunkBlocks));
    std::vector<trace::BlockView> views(scratch.size());
    for (size_t first = 0; first < blocks; first += sweepChunkBlocks) {
        if (cancel != nullptr)
            cancel->checkpoint("SimBank::simulate");
        const size_t count = std::min(sweepChunkBlocks, blocks - first);
        support::parallelFor(count, pool, [&](size_t i) {
            views[i] = buffer.decodeBlock(first + i, scratch[i]);
        });
        auto feedChunk = [&](auto &sim) {
            for (size_t i = 0; i < count; ++i)
                feedBlock(sim, views[i]);
        };
        support::parallelFor(simRuns(), pool, [&](size_t s) {
            if (s < sims_.size())
                feedChunk(sims_[s]);
            else
                feedChunk(policySims_[s - sims_.size()]);
        });
    }
    PICO_METRIC_COUNT("sweep.runs", simRuns());
    if (support::metricsEnabled()) {
        auto countAccesses = [&](const auto &sim) {
            support::metrics()
                .counter("sweep." + sweepTag(sim) + ".accesses")
                .add(buffer.size());
        };
        for (const auto &sim : sims_)
            countAccesses(sim);
        for (const auto &sim : policySims_)
            countAccesses(sim);
    }
}

bool
SimBank::covers(const cache::CacheConfig &config) const
{
    if (config.replacement != cache::ReplacementPolicy::LRU) {
        for (const auto &sim : policySims_) {
            if (sim.covers(config))
                return true;
        }
        return false;
    }
    for (const auto &sim : sims_) {
        if (sim.covers(config))
            return true;
    }
    return false;
}

double
SimBank::misses(const cache::CacheConfig &config) const
{
    // LRU reads from the Cheetah single-pass bank (stack algorithm);
    // FIFO/random read from the set-resident bank. Both write
    // policies are write-allocate, so misses never depend on
    // config.write.
    if (config.replacement != cache::ReplacementPolicy::LRU) {
        for (const auto &sim : policySims_) {
            if (sim.covers(config))
                return static_cast<double>(sim.misses(config));
        }
        fatal("configuration ", config.name(),
              " not covered by the set-resident bank (policy axes "
              "not enabled in the space?)");
    }
    for (const auto &sim : sims_) {
        if (sim.covers(config))
            return static_cast<double>(sim.misses(config));
    }
    fatal("configuration ", config.name(),
          " not covered by the simulation bank");
}

uint64_t
SimBank::stores() const
{
    fatalIf(policySims_.empty(),
            "store counts need the set-resident bank (extended "
            "policy axes)");
    return policySims_.front().stores();
}

double
SimBank::writeTraffic(const cache::CacheConfig &config) const
{
    if (config.write == cache::WritePolicy::WriteThrough) {
        // Write-allocate write-through: every store goes to memory,
        // independent of the cache geometry.
        return static_cast<double>(stores());
    }
    // Write-back traffic needs the dirty-bit model. Classic spaces
    // do not build it — their stall model is read-only, as before.
    if (policySims_.empty())
        return 0.0;
    for (const auto &sim : policySims_) {
        if (sim.covers(config))
            return static_cast<double>(sim.writebacks(config));
    }
    fatal("configuration ", config.name(),
          " not covered by the set-resident bank");
}

core::MissOracle
SimBank::oracle() const
{
    return [this](const cache::CacheConfig &config) {
        return misses(config);
    };
}

// --- IcacheEvaluator ---------------------------------------------------

IcacheEvaluator::IcacheEvaluator(CacheSpace space,
                                 uint64_t granule_refs)
    : space_(std::move(space)), granuleRefs_(granule_refs)
{
    bank_ = std::make_unique<SimBank>(space_,
                                      SimBank::contractedLines(space_));
}

void
IcacheEvaluator::evaluate(const TraceSource &ref_instr_trace,
                          support::ThreadPool *pool,
                          const support::CancelToken *cancel)
{
    support::TimedSpan span("evaluate.icache", "evaluate");
    // Capture the stream once, columnar-compressed; the trace
    // modeler is inherently serial (granule state) and runs during
    // capture, while the per-line-size simulator sweeps replay the
    // encoded blocks afterwards.
    core::ItraceModeler modeler(granuleRefs_);
    support::CancelCheck check(cancel);
    ref_instr_trace([this, &modeler,
                     &check](const trace::Access &a) {
        check.tick("IcacheEvaluator::evaluate");
        fatalIf(!a.isInstr,
                "data reference in an instruction trace");
        trace_(a);
        modeler.access(a);
    });
    PICO_METRIC_COUNT("evaluate.captured.accesses", trace_.size());
    PICO_METRIC_COUNT("evaluate.captured.bytes",
                      trace_.encodedBytes());
    bank_->simulate(trace_, pool, cancel);
    params_ = modeler.params();
    evaluated_ = true;
}

double
IcacheEvaluator::misses(const cache::CacheConfig &config,
                        double dilation) const
{
    fatalIf(!evaluated_, "evaluator has not seen a trace yet");
    if (dilation == 1.0)
        return bank_->misses(config);
    core::DilationModel model(params_, params_, params_);
    if (config.replacement == cache::ReplacementPolicy::LRU)
        return model.estimateIcacheMisses(config, dilation,
                                          bank_->oracle());
    // The dilation model reasons over LRU stack behavior
    // (contracted line sizes against the Cheetah oracle). For
    // non-stack policies, apply the model's *relative* dilation
    // effect — estimated on the LRU twin of the same geometry — to
    // the policy's own simulated count.
    cache::CacheConfig twin = config;
    twin.replacement = cache::ReplacementPolicy::LRU;
    twin.write = cache::WritePolicy::WriteBack;
    double twin_sim = bank_->misses(twin);
    double twin_est = model.estimateIcacheMisses(twin, dilation,
                                                 bank_->oracle());
    double scale = twin_sim > 0.0 ? twin_est / twin_sim : 1.0;
    return bank_->misses(config) * scale;
}

double
IcacheEvaluator::writeTraffic(const cache::CacheConfig &config) const
{
    fatalIf(!evaluated_, "evaluator has not seen a trace yet");
    return bank_->writeTraffic(config);
}

ParetoSet
IcacheEvaluator::pareto(double dilation, double miss_penalty,
                        double write_cost) const
{
    ParetoSet set;
    for (const auto &config : space_.enumerate()) {
        DesignPoint point;
        point.id = "I$" + config.name();
        point.cost = config.areaCost();
        point.time = misses(config, dilation) * miss_penalty;
        if (write_cost != 0.0)
            point.time += writeTraffic(config) * write_cost;
        set.insertPoint(point);
    }
    return set;
}

// --- DcacheEvaluator ---------------------------------------------------

DcacheEvaluator::DcacheEvaluator(CacheSpace space)
    : space_(std::move(space))
{
    bank_ = std::make_unique<SimBank>(space_);
}

void
DcacheEvaluator::evaluate(const TraceSource &ref_data_trace,
                          support::ThreadPool *pool,
                          const support::CancelToken *cancel)
{
    support::TimedSpan span("evaluate.dcache", "evaluate");
    support::CancelCheck check(cancel);
    ref_data_trace([this, &check](const trace::Access &a) {
        check.tick("DcacheEvaluator::evaluate");
        fatalIf(a.isInstr, "instruction reference in a data trace");
        trace_(a);
    });
    PICO_METRIC_COUNT("evaluate.captured.accesses", trace_.size());
    PICO_METRIC_COUNT("evaluate.captured.bytes",
                      trace_.encodedBytes());
    bank_->simulate(trace_, pool, cancel);
    evaluated_ = true;
}

double
DcacheEvaluator::misses(const cache::CacheConfig &config) const
{
    fatalIf(!evaluated_, "evaluator has not seen a trace yet");
    return bank_->misses(config);
}

double
DcacheEvaluator::writeTraffic(const cache::CacheConfig &config) const
{
    fatalIf(!evaluated_, "evaluator has not seen a trace yet");
    return bank_->writeTraffic(config);
}

ParetoSet
DcacheEvaluator::pareto(double miss_penalty,
                        double write_cost) const
{
    ParetoSet set;
    for (const auto &config : space_.enumerate()) {
        DesignPoint point;
        point.id = "D$" + config.name();
        point.cost = config.areaCost();
        point.time = misses(config) * miss_penalty;
        if (write_cost != 0.0)
            point.time += writeTraffic(config) * write_cost;
        set.insertPoint(point);
    }
    return set;
}

// --- UcacheEvaluator ---------------------------------------------------

UcacheEvaluator::UcacheEvaluator(CacheSpace space,
                                 uint64_t granule_refs)
    : space_(std::move(space)), granuleRefs_(granule_refs)
{
    bank_ = std::make_unique<SimBank>(space_);
}

void
UcacheEvaluator::evaluate(const TraceSource &ref_unified_trace,
                          support::ThreadPool *pool,
                          const support::CancelToken *cancel)
{
    support::TimedSpan span("evaluate.ucache", "evaluate");
    core::UtraceModeler modeler(granuleRefs_);
    support::CancelCheck check(cancel);
    ref_unified_trace([this, &modeler,
                       &check](const trace::Access &a) {
        check.tick("UcacheEvaluator::evaluate");
        trace_(a);
        modeler.access(a);
    });
    PICO_METRIC_COUNT("evaluate.captured.accesses", trace_.size());
    PICO_METRIC_COUNT("evaluate.captured.bytes",
                      trace_.encodedBytes());
    bank_->simulate(trace_, pool, cancel);
    iParams_ = modeler.instrParams();
    dParams_ = modeler.dataParams();
    evaluated_ = true;
}

double
UcacheEvaluator::misses(const cache::CacheConfig &config,
                        double dilation) const
{
    fatalIf(!evaluated_, "evaluator has not seen a trace yet");
    // The dilation estimate scales the simulated reference count
    // (equations 4.13–4.15), so routing the reference count by
    // replacement policy is all a non-LRU design needs.
    double ref_misses = bank_->misses(config);
    if (dilation == 1.0)
        return ref_misses;
    core::DilationModel model(iParams_, iParams_, dParams_);
    return model.estimateUcacheMisses(config, dilation, ref_misses);
}

double
UcacheEvaluator::writeTraffic(const cache::CacheConfig &config) const
{
    fatalIf(!evaluated_, "evaluator has not seen a trace yet");
    return bank_->writeTraffic(config);
}

ParetoSet
UcacheEvaluator::pareto(double dilation, double miss_penalty,
                        double write_cost) const
{
    ParetoSet set;
    for (const auto &config : space_.enumerate()) {
        DesignPoint point;
        point.id = "U$" + config.name();
        point.cost = config.areaCost();
        point.time = misses(config, dilation) * miss_penalty;
        if (write_cost != 0.0)
            point.time += writeTraffic(config) * write_cost;
        set.insertPoint(point);
    }
    return set;
}

} // namespace pico::dse
