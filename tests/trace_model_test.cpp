/**
 * @file
 * Unit tests for the trace modelers: granule run statistics, the
 * derived parameters p2 and u(L), and the I/U modeler front ends,
 * plus a differential check of the deduplicating granule set against
 * a sort-everything reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/TraceModel.hpp"
#include "support/Logging.hpp"
#include "support/Random.hpp"

namespace pico::core
{
namespace
{

trace::Access
instrWord(uint64_t word)
{
    return {word * 4, true, false};
}

trace::Access
dataWord(uint64_t word)
{
    return {word * 4, false, false};
}

TEST(GranuleAccumulator, SingleRunStatistics)
{
    GranuleAccumulator acc;
    for (uint64_t w = 100; w < 110; ++w)
        acc.addWord(w);
    acc.closeGranule();
    auto p = acc.params();
    EXPECT_DOUBLE_EQ(p.u1, 10.0);  // 10 unique words
    EXPECT_DOUBLE_EQ(p.p1, 0.0);   // no isolated references
    EXPECT_DOUBLE_EQ(p.lav, 10.0); // one run of length 10
}

TEST(GranuleAccumulator, AllIsolated)
{
    GranuleAccumulator acc;
    for (uint64_t w = 0; w < 8; ++w)
        acc.addWord(w * 10);
    acc.closeGranule();
    auto p = acc.params();
    EXPECT_DOUBLE_EQ(p.u1, 8.0);
    EXPECT_DOUBLE_EQ(p.p1, 1.0);
    EXPECT_DOUBLE_EQ(p.lav, 1.0);
}

TEST(GranuleAccumulator, MixedRuns)
{
    GranuleAccumulator acc;
    // Run of 3 (5,6,7), isolated (20), run of 2 (30,31).
    for (uint64_t w : {5, 6, 7, 20, 30, 31})
        acc.addWord(w);
    acc.closeGranule();
    auto p = acc.params();
    EXPECT_DOUBLE_EQ(p.u1, 6.0);
    EXPECT_NEAR(p.p1, 1.0 / 6.0, 1e-12); // 1 isolated of 6 unique
    EXPECT_DOUBLE_EQ(p.lav, 2.0);        // 6 unique / 3 runs
}

TEST(GranuleAccumulator, DuplicatesCollapse)
{
    GranuleAccumulator acc;
    for (int rep = 0; rep < 5; ++rep)
        for (uint64_t w : {1, 2, 3})
            acc.addWord(w);
    acc.closeGranule();
    auto p = acc.params();
    EXPECT_DOUBLE_EQ(p.u1, 3.0);
    EXPECT_DOUBLE_EQ(p.lav, 3.0);
}

TEST(GranuleAccumulator, AveragesAcrossGranules)
{
    GranuleAccumulator acc;
    for (uint64_t w = 0; w < 4; ++w)
        acc.addWord(w); // one run of 4
    acc.closeGranule();
    for (uint64_t w = 0; w < 4; ++w)
        acc.addWord(w * 100); // four isolated
    acc.closeGranule();
    auto p = acc.params();
    EXPECT_EQ(acc.granules(), 2u);
    EXPECT_DOUBLE_EQ(p.u1, 4.0);
    EXPECT_DOUBLE_EQ(p.p1, 0.5);        // (0 + 1) / 2
    EXPECT_DOUBLE_EQ(p.lav, 2.5);       // (4 + 1) / 2
}

TEST(GranuleAccumulator, EmptyGranuleIgnored)
{
    GranuleAccumulator acc;
    acc.closeGranule();
    EXPECT_EQ(acc.granules(), 0u);
    EXPECT_THROW(acc.params(), PanicError);
}

TEST(ComponentParams, P2Definition)
{
    ComponentParams p;
    p.u1 = 100.0;
    p.p1 = 0.2;
    p.lav = 5.0;
    // Equation 4.4: (5 - 1.2) / 4 = 0.95.
    EXPECT_NEAR(p.p2(), 0.95, 1e-12);
}

TEST(ComponentParams, P2DegenerateAtUnitRunLength)
{
    ComponentParams p;
    p.u1 = 10.0;
    p.p1 = 1.0;
    p.lav = 1.0;
    EXPECT_DOUBLE_EQ(p.p2(), 0.0);
}

TEST(ComponentParams, ULinesEndpoints)
{
    ComponentParams p;
    p.u1 = 120.0;
    p.p1 = 0.1;
    p.lav = 6.0;
    // L = 1 word: every unique word is its own line.
    EXPECT_NEAR(p.uLines(1.0), 120.0, 1e-9);
    // L -> infinity: one line per run = u1 / lav.
    EXPECT_NEAR(p.uLines(1e9), 20.0, 1e-3);
}

TEST(ComponentParams, ULinesMatchesPForm)
{
    // The closed form equals the equation 4.5 p-form
    // u(1)(1 + p1/L - p2)/(1 + p1 - p2) under equation 4.4.
    ComponentParams p;
    p.u1 = 250.0;
    p.p1 = 0.3;
    p.lav = 4.0;
    for (double L : {1.0, 2.0, 3.7, 8.0, 16.0, 100.0}) {
        double closed = p.uLines(L);
        double pform = p.u1 * (1.0 + p.p1 / L - p.p2()) /
                       (1.0 + p.p1 - p.p2());
        EXPECT_NEAR(closed, pform, 1e-9 * closed) << "L=" << L;
    }
}

TEST(ComponentParams, ULinesMonotoneDecreasing)
{
    ComponentParams p;
    p.u1 = 300.0;
    p.p1 = 0.25;
    p.lav = 5.0;
    double prev = p.uLines(1.0);
    for (double L = 2.0; L <= 64.0; L *= 2.0) {
        double cur = p.uLines(L);
        EXPECT_LT(cur, prev);
        prev = cur;
    }
}

TEST(ItraceModeler, FiltersDataReferences)
{
    ItraceModeler modeler(16);
    for (uint64_t w = 0; w < 16; ++w) {
        modeler.access(instrWord(w));
        modeler.access(dataWord(w + 1000)); // must be ignored
    }
    ASSERT_EQ(modeler.granules(), 1u);
    EXPECT_DOUBLE_EQ(modeler.params().u1, 16.0);
    EXPECT_DOUBLE_EQ(modeler.params().lav, 16.0);
}

TEST(ItraceModeler, ThrowsWithoutFullGranule)
{
    ItraceModeler modeler(1000);
    modeler.access(instrWord(1));
    EXPECT_THROW(modeler.params(), FatalError);
}

TEST(UtraceModeler, SeparatesComponents)
{
    UtraceModeler modeler(20);
    // 10 sequential instruction words + 10 isolated data words per
    // granule.
    for (uint64_t w = 0; w < 10; ++w)
        modeler.access(instrWord(w));
    for (uint64_t w = 0; w < 10; ++w)
        modeler.access(dataWord(10000 + w * 50));
    ASSERT_EQ(modeler.granules(), 1u);
    EXPECT_DOUBLE_EQ(modeler.instrParams().lav, 10.0);
    EXPECT_DOUBLE_EQ(modeler.instrParams().p1, 0.0);
    EXPECT_DOUBLE_EQ(modeler.dataParams().lav, 1.0);
    EXPECT_DOUBLE_EQ(modeler.dataParams().p1, 1.0);
}

TEST(UtraceModeler, GranuleCountsAllReferences)
{
    // Granule size counts instruction + data together (section 4.3).
    UtraceModeler modeler(10);
    for (uint64_t w = 0; w < 5; ++w) {
        modeler.access(instrWord(w));
        modeler.access(dataWord(w + 500));
    }
    EXPECT_EQ(modeler.granules(), 1u);
}

TEST(TraceModel, RandomTraceParamsSane)
{
    // Random word addresses: p1 near 1, lav near 1.
    ItraceModeler modeler(5000);
    Rng rng(3);
    for (int i = 0; i < 50000; ++i)
        modeler.access(instrWord(rng.below(1 << 22)));
    auto p = modeler.params();
    EXPECT_GT(p.p1, 0.95);
    EXPECT_LT(p.lav, 1.1);
    EXPECT_GT(p.u1, 4000.0);
}

/**
 * The textbook accumulator the deduplicating one must match: keep
 * every reference, then sort the granule and drop duplicates.
 */
class SortAllAccumulator
{
  public:
    void addWord(uint64_t word) { words_.push_back(word); }

    void
    closeGranule()
    {
        if (words_.empty())
            return;
        std::sort(words_.begin(), words_.end());
        words_.erase(std::unique(words_.begin(), words_.end()),
                     words_.end());
        uint64_t runs = 0, isolated = 0;
        for (size_t i = 0; i < words_.size();) {
            size_t j = i + 1;
            while (j < words_.size() && words_[j] == words_[j - 1] + 1)
                ++j;
            ++runs;
            if (j - i == 1)
                ++isolated;
            i = j;
        }
        auto unique = static_cast<double>(words_.size());
        ++granules_;
        sumUnique_ += unique;
        sumIsolatedFraction_ += static_cast<double>(isolated) / unique;
        sumRunLength_ += unique / static_cast<double>(runs);
        words_.clear();
    }

    uint64_t granules() const { return granules_; }

    ComponentParams
    params() const
    {
        auto n = static_cast<double>(granules_);
        return {sumUnique_ / n, sumIsolatedFraction_ / n,
                sumRunLength_ / n};
    }

  private:
    std::vector<uint64_t> words_;
    uint64_t granules_ = 0;
    double sumUnique_ = 0.0;
    double sumIsolatedFraction_ = 0.0;
    double sumRunLength_ = 0.0;
};

/**
 * A word stream with the shapes that stress the set: replayed loop
 * bodies (many repeats), scattered words, stretches of one repeated
 * word, and runs at both ends of the address range (word 0 and the
 * words just below 2^62, the largest word of a byte address).
 */
std::vector<uint64_t>
stressWords(uint64_t seed, size_t length)
{
    Rng rng(seed);
    std::vector<uint64_t> words;
    words.reserve(length);
    constexpr uint64_t top = uint64_t{1} << 62;
    while (words.size() < length) {
        size_t n = 1 + rng.below(4000);
        switch (rng.below(5)) {
        case 0: { // a loop body replayed
            uint64_t base = rng.below(1 << 20);
            uint64_t body = 1 + rng.below(300);
            for (size_t k = 0; k < n; ++k)
                words.push_back(base + k % body);
            break;
        }
        case 1: // scattered
            for (size_t k = 0; k < n; ++k)
                words.push_back(rng.below(1 << 24));
            break;
        case 2: { // one word over and over
            uint64_t word = rng.below(1 << 20);
            for (size_t k = 0; k < n; ++k)
                words.push_back(word);
            break;
        }
        case 3: // from word 0 up, with repeats
            for (size_t k = 0; k < n; ++k)
                words.push_back(rng.below(64));
            break;
        default: // just below 2^62, with repeats
            for (size_t k = 0; k < n; ++k)
                words.push_back(top - 1 - rng.below(64));
            break;
        }
    }
    words.resize(length);
    return words;
}

void
expectSameParams(const ComponentParams &got,
                 const ComponentParams &want)
{
    EXPECT_EQ(got.u1, want.u1);
    EXPECT_EQ(got.p1, want.p1);
    EXPECT_EQ(got.lav, want.lav);
}

class DedupDifferential
    : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(DedupDifferential, MatchesSortAllThenUnique)
{
    const uint64_t granule = GetParam();
    // At least two full granules of mixed words (30000 words at the
    // small sizes), then one granule of a single repeated word, then
    // half a granule left open.
    const size_t mixed =
        std::max<size_t>(30000 - 30000 % granule, 2 * granule);
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto words = stressWords(seed, mixed);
        words.insert(words.end(), granule, seed * 977);
        auto tail = stressWords(seed + 100, granule / 2);
        words.insert(words.end(), tail.begin(), tail.end());
        Rng pick(seed * 7919);

        GranuleAccumulator acc;
        SortAllAccumulator ref;
        ItraceModeler imodel(granule);
        UtraceModeler umodel(granule);
        SortAllAccumulator iref, uiref, udref;
        uint64_t irefs = 0, urefs = 0;
        for (size_t k = 0; k < words.size(); ++k) {
            uint64_t w = words[k];
            acc.addWord(w);
            ref.addWord(w);
            if ((k + 1) % granule == 0) {
                acc.closeGranule();
                ref.closeGranule();
            }

            trace::Access a{w * 4, pick.coin(0.6), false};
            imodel.access(a);
            if (a.isInstr) {
                iref.addWord(w);
                if (++irefs % granule == 0)
                    iref.closeGranule();
            }
            umodel.access(a);
            (a.isInstr ? uiref : udref).addWord(w);
            if (++urefs % granule == 0) {
                uiref.closeGranule();
                udref.closeGranule();
            }
        }
        ASSERT_EQ(acc.granules(), ref.granules());
        expectSameParams(acc.params(), ref.params());
        ASSERT_EQ(imodel.granules(), iref.granules());
        ASSERT_GT(iref.granules(), 0u);
        expectSameParams(imodel.params(), iref.params());
        ASSERT_EQ(umodel.granules(), uiref.granules());
        expectSameParams(umodel.instrParams(), uiref.params());
        expectSameParams(umodel.dataParams(), udref.params());
    }
}

TEST(GranuleAccumulator, RejectsWordsBeyondByteAddresses)
{
    GranuleAccumulator acc;
    acc.addWord((uint64_t{1} << 62) - 1); // the largest word: fine
    EXPECT_THROW(acc.addWord(~uint64_t{0}), PanicError);
}

INSTANTIATE_TEST_SUITE_P(GranuleSizes, DedupDifferential,
                         ::testing::Values(1, 7, 10000, 200000));

} // namespace
} // namespace pico::core
