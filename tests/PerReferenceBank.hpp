/**
 * @file
 * Test reference for dse::SimBank: the same simulators the bank
 * builds for a space, fed one reference at a time through access().
 * The bank's columnar sweep (each block decoded once, then fed to
 * every simulator, inline or on a pool) must reproduce these counts
 * exactly, at every block capacity; the per-config CacheSim oracle
 * checks both independently.
 */

#ifndef PICO_TESTS_PER_REFERENCE_BANK_HPP
#define PICO_TESTS_PER_REFERENCE_BANK_HPP

#include <vector>

#include "cache/SetResidentSim.hpp"
#include "cache/SinglePassSim.hpp"
#include "dse/CacheSpace.hpp"
#include "support/Logging.hpp"
#include "trace/Access.hpp"
#include "trace/ColumnarTrace.hpp"

namespace pico::test
{

/** Block capacities every columnar sweep test runs at: one record
 *  per block, a small block, and the production default. */
constexpr uint32_t kBlockCapacities[] = {
    1, 128, trace::ColumnarTraceBuffer::defaultBlockCapacity};

/** One Cheetah sim per line size plus, in extended spaces, one
 *  set-resident sim per (line size, policy). */
class PerReferenceBank
{
  public:
    PerReferenceBank(const dse::CacheSpace &space,
                     const std::vector<trace::Access> &refs)
    {
        for (uint32_t line : space.distinctLineSizes()) {
            lru_.emplace_back(line, space.minSets(), space.maxSets(),
                              space.maxAssoc());
            if (!space.extendedAxes())
                continue;
            for (auto policy : space.replacements)
                policy_.emplace_back(line, space.minSets(),
                                     space.maxSets(), space.maxAssoc(),
                                     policy);
        }
        for (const auto &a : refs) {
            for (auto &sim : lru_)
                sim.access(a.addr);
            for (auto &sim : policy_)
                sim.access(a.addr, a.isWrite);
        }
    }

    /** Misses routed as SimBank routes them (LRU -> Cheetah). */
    double
    misses(const cache::CacheConfig &config) const
    {
        if (config.replacement == cache::ReplacementPolicy::LRU)
            return static_cast<double>(find(lru_, config).misses(config));
        return static_cast<double>(find(policy_, config).misses(config));
    }

    /** Store count (write-through) or dirty writebacks (write-back). */
    double
    writeTraffic(const cache::CacheConfig &config) const
    {
        const auto &sim = find(policy_, config);
        if (config.write == cache::WritePolicy::WriteThrough)
            return static_cast<double>(sim.stores());
        return static_cast<double>(sim.writebacks(config));
    }

  private:
    template <typename Sim>
    static const Sim &
    find(const std::vector<Sim> &sims, const cache::CacheConfig &config)
    {
        for (const auto &sim : sims) {
            if (sim.covers(config))
                return sim;
        }
        fatal("per-reference bank does not cover ", config.name());
    }

    std::vector<cache::SinglePassSim> lru_;
    std::vector<cache::SetResidentSim> policy_;
};

} // namespace pico::test

#endif // PICO_TESTS_PER_REFERENCE_BANK_HPP
