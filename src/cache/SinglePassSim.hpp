/**
 * @file
 * Single-pass multi-configuration cache simulator (Cheetah).
 *
 * Simulates, in one pass over an address trace, *every* LRU
 * set-associative cache whose line size equals the fixed line size
 * and whose set count and associativity lie within configured ranges.
 * This is the paper's first efficiency lever (section 3.3): the
 * number of simulation runs drops from the number of caches in the
 * design space to the number of distinct line sizes.
 *
 * Algorithm: per candidate set count S, each set keeps an LRU stack
 * truncated at the maximum associativity; the stack distance of each
 * reference is histogrammed. By LRU inclusion, misses for
 * associativity A are the references whose stack distance is >= A.
 *
 * Layout: the per-set stacks of one level (set count) live in a
 * single flat tag array of sets x maxAssoc words (structure of
 * arrays), slot [set * maxAssoc + d] holding the tag at LRU depth d.
 * Empty slots hold the sentinel ~0, which no real line tag can equal
 * (tags are addr >> log2(lineBytes), lineBytes >= 4). The inner loop
 * is branch-free: the depth search reads all maxAssoc slots with a
 * conditional-move reduction, the histogram has an extra miss bin at
 * index maxAssoc so every reference increments exactly one bin, and
 * the LRU update is a fixed-length shift-down-and-insert. One
 * reference costs the same instruction sequence whether it hits or
 * misses, which is what lets the block replay stream at memory
 * bandwidth (see ColumnarTrace.hpp).
 *
 * On top of that sits an MRU filter: a reference to the same line as
 * the previous reference hits at depth 0 in every level and leaves
 * every stack unchanged, so it is counted in a single repeat counter
 * instead of walked through the bank. Sequential instruction fetch
 * makes such runs the common case, and misses() folds the counter
 * back into the depth-0 bin of whichever level is queried.
 */

#ifndef PICO_CACHE_SINGLE_PASS_SIM_HPP
#define PICO_CACHE_SINGLE_PASS_SIM_HPP

#include <cstdint>
#include <vector>

#include "cache/CacheConfig.hpp"
#include "trace/Access.hpp"

namespace pico::cache
{

/** All-associativity, all-set-count simulator for one line size. */
class SinglePassSim
{
  public:
    /** Sentinel tag of an empty LRU slot (never a real line tag). */
    static constexpr uint64_t emptyTag = ~0ULL;

    /**
     * @param line_bytes fixed line size (power of two)
     * @param min_sets smallest set count simulated (power of two)
     * @param max_sets largest set count simulated (power of two)
     * @param max_assoc largest associativity simulated
     */
    SinglePassSim(uint32_t line_bytes, uint32_t min_sets,
                  uint32_t max_sets, uint32_t max_assoc);

    /** Feed one reference. */
    void access(uint64_t addr);

    /** Sink-compatible overload. */
    void operator()(const trace::Access &a) { access(a.addr); }

    /**
     * Feed a span of reference addresses (one decoded columnar
     * block). Levels run in the outer loop so each level's tag array
     * stays hot across the whole span; the result is bit-identical
     * to calling access() per address, because levels are
     * independent.
     */
    void accessBlock(const uint64_t *addrs, size_t n);

    /** Total references observed. */
    uint64_t accesses() const { return accesses_; }

    /**
     * Misses of the cache with the given set count and associativity
     * (and this simulator's line size).
     */
    uint64_t misses(uint32_t sets, uint32_t assoc) const;

    /** Misses of a configuration; must match the simulated ranges. */
    uint64_t misses(const CacheConfig &config) const;

    /** True when the configuration is covered by this simulator. */
    bool covers(const CacheConfig &config) const;

    uint32_t lineBytes() const { return lineBytes_; }
    uint32_t minSets() const { return minSets_; }
    uint32_t maxSets() const { return maxSets_; }
    uint32_t maxAssoc() const { return maxAssoc_; }

    /** All configurations covered, in (sets, assoc) order. */
    std::vector<CacheConfig> coveredConfigs() const;

  private:
    /** Index of a set count in the tags_/hist_ arrays. */
    size_t levelOf(uint32_t sets) const;

    /** The branch-free per-reference update of one level. */
    void touchLevel(size_t lv, uint64_t line);

    uint32_t lineBytes_;
    uint32_t minSets_;
    uint32_t maxSets_;
    uint32_t maxAssoc_;
    uint32_t lineShift_;
    uint64_t accesses_ = 0;

    /** Line of the most recent reference (emptyTag before any). */
    uint64_t lastLine_ = emptyTag;
    /** References filtered as depth-0 hits on lastLine_. */
    uint64_t mruRepeats_ = 0;
    /** accessBlock scratch: the block's run-compacted lines. */
    std::vector<uint64_t> compact_;

    /**
     * Per level (set count): flat tag array of sets x maxAssoc
     * words, [set * maxAssoc + depth], emptyTag when vacant.
     */
    std::vector<std::vector<uint64_t>> tags_;
    /**
     * Per level: histogram of stack distances. maxAssoc + 1 bins;
     * the last bin counts misses at every simulated associativity.
     */
    std::vector<std::vector<uint64_t>> hist_;
};

} // namespace pico::cache

#endif // PICO_CACHE_SINGLE_PASS_SIM_HPP
