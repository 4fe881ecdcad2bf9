/**
 * @file
 * Set-resident multi-configuration simulator for non-stack
 * replacement policies (DEW-style).
 *
 * Cheetah's single-pass trick (SinglePassSim) depends on LRU's stack
 * property: the resident set of an A-way cache is a prefix of the
 * resident set of an (A+1)-way cache, so one truncated LRU stack per
 * set yields every associativity at once. FIFO and random
 * replacement break that property — eviction order is independent of
 * reuse — so each (sets, assoc) geometry needs its own resident-set
 * state. This simulator keeps one flat tag array *per geometry* and
 * updates all of them in a single pass over the trace: still one
 * trace traversal per line size (the expensive part — decode plus
 * memory streaming), at the cost of per-geometry tag updates.
 *
 * Unlike SinglePassSim it also carries a dirty bit per resident
 * line, so it reports write-back traffic (dirty-line writebacks on
 * eviction) alongside misses for every geometry. Write-through
 * traffic needs no simulation at all: with write-allocate it is
 * exactly the store count, which the caller reads from the trace.
 *
 * Determinism contract for random replacement: victims for geometry
 * (S, A) are drawn from policyRng(S, A, line), and a draw happens
 * only on a miss in a full set, in trace order. The per-config
 * reference CacheSim draws from the same stream under the same rule,
 * so both produce bit-identical miss/writeback counts and the result
 * is independent of thread count and evaluation order.
 */

#ifndef PICO_CACHE_SET_RESIDENT_SIM_HPP
#define PICO_CACHE_SET_RESIDENT_SIM_HPP

#include <cstdint>
#include <vector>

#include "cache/CacheConfig.hpp"
#include "cache/Policy.hpp"
#include "support/Random.hpp"
#include "trace/Access.hpp"

namespace pico::cache
{

/** All-geometry simulator for one line size and one policy. */
class SetResidentSim
{
  public:
    /** Sentinel tag of an empty way (never a real line tag). */
    static constexpr uint64_t emptyTag = ~0ULL;

    /**
     * @param line_bytes fixed line size (power of two)
     * @param min_sets smallest set count simulated (power of two)
     * @param max_sets largest set count simulated (power of two)
     * @param max_assoc largest associativity simulated
     * @param policy replacement policy of every simulated geometry
     * @param policy_seed seed of the random-victim streams
     */
    SetResidentSim(uint32_t line_bytes, uint32_t min_sets,
                   uint32_t max_sets, uint32_t max_assoc,
                   ReplacementPolicy policy,
                   uint64_t policy_seed = policyDefaultSeed);

    /** Feed one reference. */
    void access(uint64_t addr, bool write);

    /** Sink-compatible overload. */
    void operator()(const trace::Access &a) { access(a.addr, a.isWrite); }

    /**
     * Feed a span of decoded columnar references. `kinds` holds the
     * per-reference kind codes of BlockView (1 = data write; 0 and 2
     * are reads); nullptr means all reads. Bit-identical to calling
     * access() per reference — geometries are independent, so the
     * geometry-outer loop only reorders writes to disjoint state.
     */
    void accessBlock(const uint64_t *addrs, const uint8_t *kinds,
                     size_t n);

    /** Total references observed. */
    uint64_t accesses() const { return accesses_; }

    /** Total store references observed (write-through traffic). */
    uint64_t stores() const { return stores_; }

    /** Misses of the geometry (sets, assoc) at this line size. */
    uint64_t misses(uint32_t sets, uint32_t assoc) const;

    /** Dirty-line writebacks of the geometry (write-back model). */
    uint64_t writebacks(uint32_t sets, uint32_t assoc) const;

    /** Misses of a covered configuration. */
    uint64_t misses(const CacheConfig &config) const;

    /** Writebacks of a covered configuration (write-back model). */
    uint64_t writebacks(const CacheConfig &config) const;

    /**
     * True when the configuration's geometry is simulated and its
     * replacement policy matches. The write policy is ignored: both
     * write policies are write-allocate, so misses are shared, and
     * writebacks() reports the write-back model's traffic.
     */
    bool covers(const CacheConfig &config) const;

    ReplacementPolicy policy() const { return policy_; }
    uint32_t lineBytes() const { return lineBytes_; }
    uint32_t minSets() const { return minSets_; }
    uint32_t maxSets() const { return maxSets_; }
    uint32_t maxAssoc() const { return maxAssoc_; }

  private:
    /**
     * One simulated geometry: a flat resident-set array of
     * sets x assoc ways plus its statistics.
     */
    struct Geometry
    {
        uint32_t sets;
        uint32_t assoc;
        /** [set * assoc + way]; emptyTag when vacant. */
        std::vector<uint64_t> tags;
        /** Dirty bit per way, parallel to tags. */
        std::vector<uint8_t> dirty;
        /** FIFO: per-set next-victim way (round-robin = oldest). */
        std::vector<uint32_t> fifoPtr;
        /** Random: this geometry's deterministic victim stream. */
        Rng rng{0};
        uint64_t misses = 0;
        uint64_t writebacks = 0;
    };

    size_t geometryIndex(uint32_t sets, uint32_t assoc) const;
    void touch(Geometry &g, uint64_t line, bool write);

    uint32_t lineBytes_;
    uint32_t minSets_;
    uint32_t maxSets_;
    uint32_t maxAssoc_;
    uint32_t lineShift_;
    ReplacementPolicy policy_;
    uint64_t accesses_ = 0;
    uint64_t stores_ = 0;
    std::vector<Geometry> geometries_;
};

} // namespace pico::cache

#endif // PICO_CACHE_SET_RESIDENT_SIM_HPP
