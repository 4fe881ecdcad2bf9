/**
 * @file
 * Tests for the cache-subsystem evaluators and the memory walker:
 * single-pass banks, dilation-aware miss queries, Pareto
 * construction, and inclusion filtering.
 */

#include <gtest/gtest.h>

#include "dse/Evaluators.hpp"
#include "dse/Spacewalker.hpp"
#include "support/Random.hpp"

#include "PerReferenceBank.hpp"

namespace pico::dse
{
namespace
{

CacheSpace
smallSpace()
{
    CacheSpace space;
    space.sizesBytes = {1024, 4096, 16384};
    space.assocs = {1, 2};
    space.lineSizes = {16, 32};
    return space;
}

TraceSource
syntheticInstrTrace(uint64_t seed, int length)
{
    return [seed, length](const TraceSink &sink) {
        Rng rng(seed);
        uint64_t pc = 0x01000000;
        for (int i = 0; i < length; ++i) {
            if (rng.coin(0.12))
                pc = 0x01000000 + (rng.below(1 << 15) & ~3ULL);
            sink({pc, true, false});
            pc += 4;
        }
    };
}

TraceSource
syntheticDataTrace(uint64_t seed, int length)
{
    return [seed, length](const TraceSink &sink) {
        Rng rng(seed);
        for (int i = 0; i < length; ++i) {
            uint64_t addr =
                0x40000000 + (rng.below(1 << 16) & ~3ULL);
            sink({addr, false, rng.coin(0.3)});
        }
    };
}

TraceSource
syntheticUnifiedTrace(uint64_t seed, int length)
{
    return [seed, length](const TraceSink &sink) {
        Rng rng(seed);
        uint64_t pc = 0x01000000;
        for (int i = 0; i < length; ++i) {
            if (rng.coin(0.65)) {
                if (rng.coin(0.12))
                    pc = 0x01000000 +
                         (rng.below(1 << 15) & ~3ULL);
                sink({pc, true, false});
                pc += 4;
            } else {
                sink({0x40000000 + (rng.below(1 << 16) & ~3ULL),
                      false, false});
            }
        }
    };
}

TEST(SimBank, CoversDownToOneWordLines)
{
    // The instruction-side bank: lines 4, 8, 16, 32 -> four
    // single-pass runs.
    SimBank bank(smallSpace(), SimBank::contractedLines(smallSpace()));
    EXPECT_EQ(bank.simRuns(), 4u);
    EXPECT_TRUE(bank.covers(cache::CacheConfig{64, 1, 4}));
    EXPECT_TRUE(bank.covers(cache::CacheConfig{64, 2, 32}));
    EXPECT_FALSE(bank.covers(cache::CacheConfig{64, 1, 64}));
}

TEST(SimBank, DataSideBanksSimulateOnlyTheSpaceLines)
{
    MemorySpaces spaces;
    for (const CacheSpace &space :
         {smallSpace(), spaces.dcache, spaces.ucache}) {
        SimBank bank(space);
        EXPECT_EQ(bank.simRuns(), space.distinctLineSizes().size());
        EXPECT_FALSE(bank.covers(
            cache::CacheConfig{space.minSets(), 1, 4}));
    }
    DcacheEvaluator deval(spaces.dcache);
    UcacheEvaluator ueval(spaces.ucache);
    EXPECT_EQ(deval.bank().simRuns(),
              spaces.dcache.distinctLineSizes().size());
    EXPECT_EQ(ueval.bank().simRuns(),
              spaces.ucache.distinctLineSizes().size());
}

TEST(SimBank, ContractedLinesFillEveryPowerOfTwoGap)
{
    CacheSpace space = smallSpace();
    space.lineSizes = {64, 16};
    EXPECT_EQ(SimBank::contractedLines(space),
              (std::vector<uint32_t>{4, 8, 16, 32, 64}));
    // The one-argument bank leaves the gap at 32 bytes alone.
    EXPECT_EQ(SimBank(space).simRuns(), 2u);
    EXPECT_FALSE(SimBank(space).covers(cache::CacheConfig{64, 1, 32}));
}

TEST(SimBank, RejectsLinesThatOmitTheSpace)
{
    EXPECT_THROW((SimBank(smallSpace(), {4, 8, 16})), FatalError);
}

TEST(IcacheEvaluator, DilatedQueriesStayInsideTheBank)
{
    // Every line the dilation model asks the oracle for, at any
    // dilation from 1 to 4, must be one the I-side bank simulated.
    MemorySpaces spaces;
    IcacheEvaluator eval(spaces.icache, 2000);
    eval.evaluate(syntheticInstrTrace(11, 40000));
    core::DilationModel model(eval.params(), eval.params(),
                              eval.params());
    size_t asked = 0;
    core::MissOracle checked = [&](const cache::CacheConfig &c) {
        ++asked;
        EXPECT_TRUE(eval.bank().covers(c)) << c.name();
        return eval.bank().misses(c);
    };
    for (const auto &cfg : spaces.icache.enumerate()) {
        for (int step = 0; step <= 60; ++step) {
            double d = 1.0 + step * 0.05;
            EXPECT_NO_THROW(eval.misses(cfg, d)) << cfg.name() << d;
            model.estimateIcacheMisses(cfg, d, checked);
        }
    }
    EXPECT_GT(asked, 0u);
}

TEST(SimBank, MissesThrowOutsideCoverage)
{
    for (uint32_t capacity : test::kBlockCapacities) {
        trace::ColumnarTraceBuffer buffer(capacity);
        syntheticInstrTrace(1, 1000)(
            [&buffer](const trace::Access &a) { buffer(a); });
        SimBank bank(smallSpace());
        bank.simulate(buffer, nullptr);
        EXPECT_THROW(bank.misses(cache::CacheConfig{64, 1, 128}),
                     FatalError)
            << "block capacity " << capacity;
    }
}

TEST(IcacheEvaluator, UnitDilationEqualsSimulation)
{
    IcacheEvaluator eval(smallSpace(), 2000);
    eval.evaluate(syntheticInstrTrace(3, 60000));
    for (const auto &cfg : smallSpace().enumerate()) {
        EXPECT_DOUBLE_EQ(eval.misses(cfg, 1.0),
                         eval.bank().misses(cfg))
            << cfg.name();
    }
}

TEST(IcacheEvaluator, DilationIncreasesMisses)
{
    IcacheEvaluator eval(smallSpace(), 2000);
    eval.evaluate(syntheticInstrTrace(4, 60000));
    cache::CacheConfig cfg{64, 1, 32};
    double base = eval.misses(cfg, 1.0);
    double dil = eval.misses(cfg, 2.0);
    EXPECT_GT(dil, base);
}

TEST(IcacheEvaluator, RejectsQueriesBeforeEvaluate)
{
    IcacheEvaluator eval(smallSpace());
    EXPECT_THROW(eval.misses(cache::CacheConfig{64, 1, 32}, 1.0),
                 FatalError);
}

TEST(IcacheEvaluator, RejectsDataReferences)
{
    IcacheEvaluator eval(smallSpace(), 1000);
    EXPECT_THROW(eval.evaluate(syntheticDataTrace(5, 5000)),
                 FatalError);
}

TEST(DcacheEvaluator, SimulatesAndIgnoresDilation)
{
    DcacheEvaluator eval(smallSpace());
    eval.evaluate(syntheticDataTrace(6, 50000));
    cache::CacheConfig cfg{128, 2, 32};
    EXPECT_GT(eval.misses(cfg), 0.0);
}

TEST(UcacheEvaluator, DilationScalesUnifiedMisses)
{
    UcacheEvaluator eval(smallSpace(), 10000);
    eval.evaluate(syntheticUnifiedTrace(7, 120000));
    cache::CacheConfig cfg{256, 2, 32};
    double base = eval.misses(cfg, 1.0);
    double dil = eval.misses(cfg, 2.5);
    EXPECT_DOUBLE_EQ(base, eval.misses(cfg, 1.0));
    EXPECT_GE(dil, base);
}

TEST(Evaluators, ParetoSetsAreNonEmptyAndConsistent)
{
    IcacheEvaluator ieval(smallSpace(), 2000);
    ieval.evaluate(syntheticInstrTrace(8, 60000));
    auto front = ieval.pareto(1.5, 10.0);
    EXPECT_FALSE(front.empty());
    // Every front member's misses must be reproducible.
    for (const auto &p : front.points()) {
        EXPECT_GT(p.cost, 0.0);
        EXPECT_GE(p.time, 0.0);
    }
    // The largest, most associative cache must have the fewest
    // misses; it can only be excluded by cost.
    auto sorted = front.sorted();
    for (size_t i = 1; i < sorted.size(); ++i)
        EXPECT_LE(sorted[i].time, sorted[i - 1].time);
}

TEST(MemoryWalker, StallCyclesAdditive)
{
    MemorySpaces spaces;
    spaces.icache = smallSpace();
    spaces.dcache = smallSpace();
    spaces.ucache = CacheSpace::defaultL2Space();
    StallModel stalls;
    MemoryWalker walker(spaces, stalls);
    walker.evaluate(syntheticInstrTrace(9, 60000),
                    syntheticDataTrace(10, 50000),
                    syntheticUnifiedTrace(11, 250000));

    cache::CacheConfig ic{64, 1, 32};
    cache::CacheConfig dc{64, 2, 32};
    cache::CacheConfig uc{512, 2, 64};
    double total = walker.stallCycles(ic, dc, uc, 1.3);
    double manual =
        walker.icache().misses(ic, 1.3) * stalls.l2HitLatency +
        walker.dcache().misses(dc) * stalls.l2HitLatency +
        walker.ucache().misses(uc, 1.3) * stalls.memoryLatency;
    EXPECT_DOUBLE_EQ(total, manual);
}

TEST(MemoryWalker, ParetoRespectsInclusion)
{
    MemorySpaces spaces;
    spaces.icache = smallSpace();
    spaces.dcache = smallSpace();
    CacheSpace l2;
    l2.sizesBytes = {8192, 32768};
    l2.assocs = {2};
    l2.lineSizes = {32, 64};
    spaces.ucache = l2;

    MemoryWalker walker(spaces, StallModel{});
    walker.evaluate(syntheticInstrTrace(12, 60000),
                    syntheticDataTrace(13, 50000),
                    syntheticUnifiedTrace(14, 250000));
    auto front = walker.pareto(1.0);
    EXPECT_FALSE(front.empty());
    // Hierarchy ids embed the component names; an 8KB L2 may never
    // appear together with a 16KB L1.
    for (const auto &p : front.points()) {
        bool small_l2 = p.id.find("U$8KB") != std::string::npos;
        bool big_l1 = p.id.find("I$16KB") != std::string::npos ||
                      p.id.find("D$16KB") != std::string::npos;
        EXPECT_FALSE(small_l2 && big_l1) << p.id;
    }
}

} // namespace
} // namespace pico::dse
